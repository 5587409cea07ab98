import io
import json
import math
import subprocess
import sys

import pytest

import qcdisc.experiments as experiments
from qcdisc.channels import ETA_MAX, ChannelFamily, ChannelSpec
from qcdisc.strategies import InputSchedule, strategy_value
from qcdisc.experiments import (
    CURVE_FIELDS,
    SWEEP_FIELDS,
    ConfigError,
    closed_form_one_shot,
    make_config,
    optimize_strategy,
    read_records_csv,
    read_records_json,
    run_curve,
    run_sweep_diff,
    run_validate,
    write_records_csv,
    write_records_json,
)


def small_curve_config(**overrides):
    base = dict(
        family="depolarizing",
        points=[(0.75, 0.4)],
        n_max=3,
        strategies=("global", "bayesian", "markovian"),
        seed=3,
    )
    base.update(overrides)
    return make_config(**base)


# ---------------------------------------------------------------------------
# configuration


def test_rejects_equal_etas():
    with pytest.raises(ConfigError):
        make_config("bit-flip", points=[(0.4, 0.4)])


def test_rejects_unknown_family():
    with pytest.raises(ConfigError):
        make_config("phase-flip", points=[(0.5, 0.1)])


def test_rejects_out_of_range_point():
    with pytest.raises(ConfigError):
        make_config("depolarizing", points=[(1.2, 0.4)])
    with pytest.raises(ConfigError):
        make_config("amplitude-damping", points=[(1.1, 0.4)])  # fraction > 1


def test_rejects_bad_settings():
    with pytest.raises(ConfigError):
        make_config("bit-flip", points=[(0.5, 0.1)], n_max=0)
    with pytest.raises(ConfigError):
        make_config("bit-flip", points=[(0.5, 0.1)], strategies=("psychic",))
    with pytest.raises(ConfigError):
        make_config("bit-flip", points=[(0.5, 0.1)], input_mode="sideways")
    with pytest.raises(ConfigError):
        make_config("bit-flip", grid=(0.0, 1.0, 1))
    with pytest.raises(ConfigError):
        make_config("bit-flip", points=[(0.5, 0.1)], jobs=0)


def test_damping_etas_are_fractions_of_quarter_turn():
    cfg = make_config("amplitude-damping", points=[(0.75, 0.4)])
    assert cfg.points_entered == ((0.75, 0.4),)
    assert abs(cfg.points[0][0] - 0.75 * math.pi / 2) < 1e-15
    assert abs(cfg.points[0][1] - 0.4 * math.pi / 2) < 1e-15
    cfg = make_config("amplitude-damping", grid=(0.0, 1.0, 5))
    assert abs(cfg.grid[1] - math.pi / 2) < 1e-15


# ---------------------------------------------------------------------------
# curve


def test_curve_depolarizing_values_and_shape():
    rows = run_curve(small_curve_config())
    assert len(rows) == 9
    # ordered by (point, n, strategy)
    assert [(r.n, r.strategy) for r in rows[:4]] == [
        (1, "global"),
        (1, "bayesian"),
        (1, "markovian"),
        (2, "global"),
    ]
    for row in rows:
        if row.n == 1:
            assert abs(row.p_succ - 0.5875) <= 1e-9
        assert row.evaluations == 1  # input independent, no optimization
        assert 0.5 <= row.p_succ <= 1.0


def test_curve_bit_flip_one_shot_closed_form():
    cfg = make_config("bit-flip", points=[(0.75, 0.4)], n_max=1, strategies=("markovian",))
    rows = run_curve(cfg)
    assert len(rows) == 1
    assert abs(rows[0].p_succ - 0.675) <= 1e-6


def test_curve_global_cap_skips_with_warning(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "GLOBAL_SHOT_CAP", 2)
    cfg = small_curve_config(strategies=("global", "markovian"))
    rows = run_curve(cfg)
    assert sorted({(r.strategy, r.n) for r in rows}) == [
        ("global", 1),
        ("global", 2),
        ("markovian", 1),
        ("markovian", 2),
        ("markovian", 3),
    ]
    assert "global strategy skipped for n=3" in capsys.readouterr().err


def test_curve_requires_points():
    with pytest.raises(ConfigError):
        run_curve(make_config("bit-flip", grid=(0.0, 1.0, 4)))


# ---------------------------------------------------------------------------
# sweep


def test_sweep_small_grid_damping():
    cfg = make_config("amplitude-damping", grid=(0.0, 1.0, 6), seed=5)
    rows = run_sweep_diff(cfg)
    assert len(rows) == 15  # strict lower triangle of 6x6
    for row in rows:
        assert row.eta0 > row.eta1
        assert row.diff >= -1e-9
        assert abs(row.diff - (row.p_bayes - row.p_markov)) <= 1e-15


def test_sweep_nearly_identical_channels_no_difference():
    # Cells hugging the diagonal, away from the anti-diagonal band where
    # the two strategies genuinely part ways.
    for lo, hi in ((0.3, 0.3001), (0.8, 0.8001)):
        cfg = make_config("amplitude-damping", grid=(lo, hi, 2), seed=5)
        rows = run_sweep_diff(cfg)
        assert len(rows) == 1
        assert abs(rows[0].diff) <= 1e-6


def test_sweep_requires_grid():
    with pytest.raises(ConfigError):
        run_sweep_diff(make_config("bit-flip", points=[(0.5, 0.1)]))


def test_sweep_parallel_matches_serial():
    cfg1 = make_config("bit-flip", grid=(0.1, 0.9, 4), seed=2, jobs=1)
    cfg2 = make_config("bit-flip", grid=(0.1, 0.9, 4), seed=2, jobs=2)
    assert run_sweep_diff(cfg1) == run_sweep_diff(cfg2)


def test_sweep_adaptive_damping_with_subnormal_inputs():
    # The optimizer proposes r near 5e-322 here; an underflowing eigenvector
    # norm used to end the run with ZeroDivisionError.
    cfg = make_config("amplitude-damping", grid=(0.0, 1.0, 4), input_mode="adaptive", seed=0)
    rows = run_sweep_diff(cfg)
    assert len(rows) == 6
    for row in rows:
        assert 0.5 - 1e-12 <= row.p_markov <= row.p_bayes + 1e-9 <= 1.0 + 1e-9


def test_sweep_warns_when_optimizations_miss(capsys):
    run_sweep_diff(make_config("bit-flip", grid=(0.0, 1.0, 3), max_evals=8))
    assert "warning: 6 of 6 optimizations did not converge" in capsys.readouterr().err
    run_sweep_diff(make_config("bit-flip", grid=(0.0, 1.0, 3)))
    assert "did not converge" not in capsys.readouterr().err


def test_curve_warns_when_optimizations_miss(capsys):
    cfg = make_config("bit-flip", points=[(0.75, 0.4)], n_max=2,
                      strategies=("bayesian", "markovian"), max_evals=8)
    run_curve(cfg)
    assert "warning: 4 of 4 optimizations did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["bit-flip", "amplitude-damping"])
@pytest.mark.parametrize("kind", ["bayesian", "markovian"])
@pytest.mark.parametrize("input_mode", ["flat", "adaptive"])
def test_optimize_strategy_value_attained(family, kind, input_mode):
    spec0 = ChannelSpec(family, 0.75 * ETA_MAX[ChannelFamily(family)])
    spec1 = ChannelSpec(family, 0.4 * ETA_MAX[ChannelFamily(family)])
    p, r_values, _ = optimize_strategy(kind, spec0, spec1, 3, input_mode)
    if input_mode == "flat":
        sched = InputSchedule.flat(r_values)
    else:  # levels of 1, 2 and then 4 (Bayesian) or 2 (Markovian) values
        sched = InputSchedule.adaptive([r_values[:1], r_values[1:3], r_values[3:]])
    assert abs(p - strategy_value(kind, spec0, spec1, sched)) <= 1e-14


# ---------------------------------------------------------------------------
# serialization


def test_csv_json_round_trip():
    cfg = small_curve_config()
    rows = run_curve(cfg)
    csv_buf = io.StringIO()
    json_buf = io.StringIO()
    write_records_csv(rows, CURVE_FIELDS, cfg.as_dict(), csv_buf)
    write_records_json(rows, CURVE_FIELDS, cfg.as_dict(), json_buf)
    csv_rows = read_records_csv(io.StringIO(csv_buf.getvalue()))
    json_rows = read_records_json(io.StringIO(json_buf.getvalue()))
    assert csv_rows == json_rows
    assert len(csv_rows) == len(rows)


def test_csv_deterministic_except_wall_time():
    def render():
        rows = run_curve(small_curve_config())
        buf = io.StringIO()
        write_records_csv(rows, CURVE_FIELDS, small_curve_config().as_dict(), buf)
        lines = []
        for line in buf.getvalue().splitlines():
            if line.startswith("#") or line.startswith("family,"):
                lines.append(line)
            else:
                lines.append(line.rsplit(",", 1)[0])  # drop wall_time_s
        return "\n".join(lines)

    assert render() == render()


def test_read_back_rejects_corrupt_success_probability():
    cfg = small_curve_config()
    rows = run_curve(cfg)
    buf = io.StringIO()
    write_records_csv(rows, CURVE_FIELDS, cfg.as_dict(), buf)
    corrupted = buf.getvalue().replace("0.5875", "0.3")
    with pytest.raises(ValueError):
        read_records_csv(io.StringIO(corrupted))


def test_sweep_rows_round_trip():
    cfg = make_config("bit-flip", grid=(0.2, 0.8, 3), seed=1)
    rows = run_sweep_diff(cfg)
    buf = io.StringIO()
    write_records_csv(rows, SWEEP_FIELDS, cfg.as_dict(), buf)
    back = read_records_csv(io.StringIO(buf.getvalue()))
    assert len(back) == len(rows)
    for rec, row in zip(back, rows):
        assert abs(rec["p_bayes"] - row.p_bayes) <= 1e-14


# ---------------------------------------------------------------------------
# validate suites


def test_validate_reductions_pass():
    checks = run_validate("strategy-reductions", seed=0)
    assert checks and all(c.passed for c in checks)


def test_validate_povm_properties_pass():
    checks = run_validate("povm-properties", seed=0)
    assert checks and all(c.passed for c in checks)


def test_validate_unknown_suite():
    with pytest.raises(ConfigError):
        run_validate("nonsense")


def test_closed_form_one_shot_values():
    assert abs(closed_form_one_shot("depolarizing", 0.75, 0.4) - 0.5875) < 1e-15
    assert abs(closed_form_one_shot("bit-flip", 0.75, 0.4) - 0.675) < 1e-15
    # boundary regime: P = (sin^2 eta0 + cos^2 eta1) / 2
    e0, e1 = 0.75 * math.pi / 2, 0.4 * math.pi / 2
    expected = 0.5 * (math.sin(e0) ** 2 + math.cos(e1) ** 2)
    assert abs(closed_form_one_shot("amplitude-damping", e0, e1) - expected) < 1e-15


# ---------------------------------------------------------------------------
# command line


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qcdisc.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "qcdisc" in proc.stdout


def test_cli_curve_csv_stdout():
    proc = run_cli(
        "curve", "--family", "depolarizing", "--eta0", "0.75", "--eta1", "0.4",
        "--n-max", "2", "--strategies", "markovian",
    )
    assert proc.returncode == 0
    records = read_records_csv(io.StringIO(proc.stdout))
    assert len(records) == 2
    assert abs(records[0]["p_succ"] - 0.5875) <= 1e-9


def test_cli_json_output(tmp_path):
    out = tmp_path / "rows.json"
    proc = run_cli(
        "curve", "--family", "bit-flip", "--eta0", "0.6", "--eta1", "0.2",
        "--n-max", "1", "--strategies", "markovian", "--format", "json",
        "--out", str(out),
    )
    assert proc.returncode == 0
    with open(out) as fh:
        records = read_records_json(fh)
    assert len(records) == 1
    assert abs(records[0]["p_succ"] - 0.7) <= 1e-6  # (1 + 0.4) / 2


def test_cli_bad_config_exits_2():
    proc = run_cli("curve", "--family", "bit-flip", "--eta0", "0.4", "--eta1", "0.4", "--n-max", "1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_cli_missing_family_exits_2():
    proc = run_cli("curve", "--eta0", "0.5", "--eta1", "0.2")
    assert proc.returncode == 2


def test_cli_validate_exit_codes():
    proc = run_cli("validate", "strategy-reductions")
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
    proc = run_cli("validate", "not-a-suite")
    assert proc.returncode == 2


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps(
            {
                "family": "depolarizing",
                "points": [[0.75, 0.4]],
                "n_max": 5,
                "strategies": "markovian",
            }
        )
    )
    proc = run_cli("curve", "--config", str(cfg_file), "--n-max", "1")
    assert proc.returncode == 0
    records = read_records_csv(io.StringIO(proc.stdout))
    assert len(records) == 1  # the flag wins over the file's n_max
    assert records[0]["family"] == "depolarizing"
