import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import qcdisc.cli as cli
import qcdisc.experiments as experiments
from qcdisc.channels import ETA_MAX, ChannelFamily, ChannelSpec
from qcdisc.cli import main
from qcdisc.optimizer import OptimizerConfig, maximize, maximize_batch
from qcdisc.strategies import (
    SHOT_CAP,
    InputSchedule,
    StrategyKind,
    level_widths,
    strategy_value,
    values_objective,
)
from qcdisc.experiments import (
    SWEEP_SHOTS,
    VALID_STRATEGIES,
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
    with pytest.raises(ConfigError):
        make_config("bit-flip", points=[(0.5, 0.1)], max_starts=2)
    with pytest.raises(ConfigError):
        make_config("bit-flip", points=[(0.5, 0.1)], seed=-1)
    for value_tol in (-1.0, 0.0, math.inf):
        with pytest.raises(ConfigError):
            make_config("bit-flip", points=[(0.5, 0.1)], value_tol=value_tol)
    with pytest.raises(ConfigError):
        make_config("bit-flip", points=[(0.5, 0.1)], max_evals=0)


def test_grid_past_the_eta_range_exits_2():
    # The grid holds the same range as the channels; one just past it used to
    # pass here and end the run with a ValueError traceback.
    for family in ("bit-flip", "amplitude-damping"):
        with pytest.raises(ConfigError):
            make_config(family, grid=(0.0, 1.0000000000005, 3))
        make_config(family, grid=(0.0, 1.0, 3))


def test_make_config_takes_the_text_forms_of_the_flags():
    assert make_config("bit-flip", grid="0:1:8") == make_config("bit-flip", grid=(0.0, 1.0, 8))
    assert make_config("bit-flip", grid=[0, 1, "8"]) == make_config("bit-flip", grid=(0, 1, 8))
    text = make_config("bit-flip", points=[(0.75, 0.4)], strategies="bayesian, markovian,")
    assert text == make_config("bit-flip", points=[(0.75, 0.4)],
                               strategies=("bayesian", "markovian"))


@pytest.mark.parametrize("grid,message", [
    ("0:1", "grid must be MIN:MAX:STEPS or [min, max, steps], got '0:1'"),
    ("a:1:3", "grid min must be a number, got 'a'"),
    ("0:1:3.5", "grid steps must be an integer, got '3.5'"),
])
def test_grid_text_errors_name_the_bad_part(grid, message):
    with pytest.raises(ConfigError) as info:
        make_config("bit-flip", grid=grid)
    assert str(info.value) == message


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
    monkeypatch.setitem(SHOT_CAP, StrategyKind.GLOBAL, 2)
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


def test_curve_adaptive_fallback_to_flat_warns(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "ADAPTIVE_PARAM_CAP", 2)
    cfg = make_config("bit-flip", points=[(0.75, 0.4)], n_max=2, strategies=("bayesian",),
                      input_mode="adaptive", max_starts=4)
    rows = run_curve(cfg)
    # n = 2 would take 1 + 2 adaptive values; it gets one per shot instead.
    assert [len(row.r_values) for row in rows] == [1, 2]
    err = capsys.readouterr().err
    assert "bayesian inputs tied per shot for n=2" in err
    assert "n=1" not in err


def test_curve_bayesian_cap_skips_with_warning(monkeypatch, capsys, tmp_path):
    # Each strategy stops at its own cap; the rows below it are written.
    monkeypatch.setitem(SHOT_CAP, StrategyKind.BAYESIAN, 2)
    out = tmp_path / "curve.csv"
    argv = ["curve", "--family", "depolarizing", "--eta0", "0.75", "--eta1", "0.4",
            "--n-max", "3", "--strategies", "bayesian,markovian", "--out", str(out)]
    assert main(argv) == 0
    with open(out) as fh:
        rows = [(rec["strategy"], rec["n"]) for rec in read_records_csv(fh)]
    assert sorted(rows) == [("bayesian", 1), ("bayesian", 2),
                            ("markovian", 1), ("markovian", 2), ("markovian", 3)]
    err = capsys.readouterr().err
    assert err.splitlines() == ["warning: bayesian strategy skipped for n=3 (cap 2)"]


def test_curve_adaptive_fallback_warns_once_per_strategy(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "ADAPTIVE_PARAM_CAP", 2)
    cfg = make_config("bit-flip", points=[(0.75, 0.4), (0.95, 0.6)], n_max=2,
                      strategies=("bayesian", "markovian"), input_mode="adaptive", max_starts=4)
    run_curve(cfg)
    err = capsys.readouterr().err
    assert err.count("bayesian inputs tied per shot for n=2") == 1
    assert err.count("markovian inputs tied per shot for n=2") == 1


def test_curve_tied_inputs_warn_once_with_two_jobs(capfd):
    # The warning comes from the run, not from each worker's search.
    argv = ["curve", "--family", "bit-flip", "--eta0", "0.75", "--eta1", "0.4", "--eta0", "0.95",
            "--eta1", "0.6", "--n-max", "7", "--strategies", "bayesian", "--input-mode",
            "adaptive", "--max-evals", "30", "--max-starts", "3", "--jobs", "2"]
    assert main(argv) == 0
    assert capfd.readouterr().err.count("inputs tied per shot") == 1


def test_curve_global_rows_do_not_depend_on_the_input_mode():
    # The global search is flat in every config, warm starts included.
    rows = {}
    for mode, strategies in (("flat", "global"), ("adaptive", "global,bayesian,markovian")):
        cfg = make_config("amplitude-damping", points=[(0.75, 0.4)], n_max=3,
                          strategies=strategies, input_mode=mode)
        rows[mode] = [dataclasses.replace(row, wall_time_s=0.0)
                      for row in run_curve(cfg) if row.strategy == "global"]
    assert rows["flat"] == rows["adaptive"]


def test_curve_adaptive_fallback_prints_flat(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "ADAPTIVE_PARAM_CAP", 2)
    cfg = make_config("bit-flip", points=[(0.75, 0.4)], n_max=2, strategies=("bayesian",),
                      input_mode="adaptive", max_starts=4)
    rows = run_curve(cfg)
    assert [(row.n, row.input_mode, len(row.r_values)) for row in rows] == [
        (1, "adaptive", 1),
        (2, "flat", 2),
    ]
    assert "bayesian inputs tied per shot for n=2" in capsys.readouterr().err
    buf = io.StringIO()
    write_records_csv(rows, dataclasses.asdict(cfg), buf)
    buf.seek(0)
    assert [rec["input_mode"] for rec in read_records_csv(buf)] == ["adaptive", "flat"]


@pytest.mark.parametrize("family", ["depolarizing", "bit-flip"])
def test_curve_rows_print_the_layout_they_ran(family, capsys):
    # Global searches are always flat, with one r per shot; feedforward rows
    # print the adaptive layout they ran, input independent ones included.
    argv = ["curve", "--family", family, "--eta0", "0.75", "--eta1", "0.4", "--n-max", "3",
            "--input-mode", "adaptive"]
    assert main(argv) == 0
    for rec in read_records_csv(io.StringIO(capsys.readouterr().out)):
        if rec["strategy"] == "global":
            assert (rec["input_mode"], len(rec["r_values"])) == ("flat", rec["n"])
        else:
            widths = level_widths(rec["strategy"], "adaptive", rec["n"])
            assert (rec["input_mode"], len(rec["r_values"])) == ("adaptive", sum(widths))
            if rec["n"] == 3:
                assert len(rec["r_values"]) == {"bayesian": 7, "markovian": 5}[rec["strategy"]]


def test_duplicate_points_exit_2(capsys):
    with pytest.raises(ConfigError, match="each \\(eta0, eta1\\) pair once"):
        make_config("bit-flip", points=[(0.75, 0.4), (0.95, 0.6), (0.75, 0.4)])
    # Amplitude damping compares the points in radians, as the rows print them.
    with pytest.raises(ConfigError, match="pair once"):
        make_config("amplitude-damping", points=[(0.75, 0.4), (0.75, 0.4)])
    argv = ["curve", "--family", "bit-flip", "--eta0", "0.75", "--eta1", "0.4",
            "--eta0", "0.75", "--eta1", "0.4", "--n-max", "1", "--strategies", "markovian"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_workers_run_with_one_blas_thread(monkeypatch):
    for var in experiments._BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "4")
    names = list(experiments._BLAS_THREAD_VARS)
    assert experiments._map_tasks(os.getenv, names, 2) == ["1"] * len(names)
    # The calling process keeps its own settings.
    assert [os.environ[var] for var in names] == ["4"] * len(names)


def test_jobs_split_runs_a_one_point_curves_first_strategy_alone(monkeypatch):
    # The global search of a one-point curve is the costliest; the other two
    # share the second worker.
    sizes = []

    def serial(fn, payloads, jobs):
        sizes.extend(len(problems) for _, problems, _ in payloads)
        return [fn(payload) for payload in payloads]

    monkeypatch.setattr(experiments, "_map_tasks", serial)
    rows = run_curve(make_config("bit-flip", points=[(0.75, 0.4)], jobs=2))
    assert sizes == [1, 2]
    assert [row.strategy for row in rows] == ["global", "bayesian", "markovian"]


def test_duplicate_strategies_exit_2(capsys):
    with pytest.raises(ConfigError, match="each strategy once"):
        make_config("bit-flip", points=[(0.75, 0.4)], strategies=("markovian", "bayesian", "markovian"))
    argv = ["curve", "--family", "bit-flip", "--eta0", "0.75", "--eta1", "0.4",
            "--strategies", "markovian,markovian"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


def test_sweep_diff_is_the_difference_of_the_printed_values():
    # Depolarizing Bayesian and Markovian values are equal in exact
    # arithmetic; where they print equal, diff prints 0, not a rounding
    # residue such as -1.11e-16.
    rows = run_sweep_diff(make_config("depolarizing", grid=(0.0, 1.0, 12)))
    buf = io.StringIO()
    write_records_csv(rows, {}, buf)
    lines = [ln.split(",") for ln in buf.getvalue().splitlines() if not ln.startswith("#")]
    cells = [dict(zip(lines[0], ln)) for ln in lines[1:]]
    assert len(cells) == 66
    equal = [c for c in cells if c["p_bayes"] == c["p_markov"]]
    assert equal and all(c["diff"] == "0" for c in equal)
    for c in cells:
        assert Decimal(c["diff"]) == Decimal(c["p_bayes"]) - Decimal(c["p_markov"])


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


def test_cli_sweep_without_grid_exits_2_before_any_search(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(experiments, "_search", never)
    assert main(["sweep-diff", "--family", "bit-flip"]) == 2
    err = capsys.readouterr().err
    assert "--grid MIN:MAX:STEPS" in err and "grid key" in err


def test_cli_sweep_header_echoes_the_strategies_it_runs(capsys):
    assert main(["sweep-diff", "--family", "bit-flip", "--grid", "0:1:3", "--jobs", "1"]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    assert header.startswith("# config: ")
    echo = json.loads(header[len("# config: "):])
    assert echo["strategies"] == ["bayesian", "markovian"]
    assert echo["n_max"] == SWEEP_SHOTS == 3


def test_library_sweep_echoes_the_cli_config_line(capsys):
    # make_config resolves what a sweep runs, so a library config echoes the
    # same line as the command.
    assert main(["sweep-diff", "--family", "bit-flip", "--grid", "0:1:3", "--jobs", "1"]) == 0
    cli_line = capsys.readouterr().out.splitlines()[1]
    buf = io.StringIO()
    write_records_csv([], dataclasses.asdict(make_config("bit-flip", grid="0:1:3")), buf)
    assert buf.getvalue().splitlines()[1] == cli_line


@pytest.mark.parametrize("setting", [
    {"points": [(0.5, 0.1)]},
    {"n_max": 3},
    {"strategies": "bayesian,markovian"},
])
def test_grid_config_takes_no_points_shots_or_strategies(setting):
    with pytest.raises(ConfigError, match="a grid config takes no"):
        make_config("bit-flip", grid=(0.0, 1.0, 3), **setting)


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


@pytest.mark.parametrize("input_mode", ["flat", "adaptive"])
def test_sweep_rows_equal_per_strategy_searches(input_mode):
    # One lockstep search over both strategies gives each cell exactly what
    # a search of its own per strategy gives, with the seed the sweep sets.
    cfg = make_config("bit-flip", grid=(0.0, 1.0, 4), input_mode=input_mode, seed=3)
    rows = run_sweep_diff(cfg)
    assert len(rows) == 6
    for i, row in enumerate(rows):
        opt_cfg = OptimizerConfig(seed=cfg.seed + 104729 * i)
        specs = ChannelSpec(cfg.family, row.eta0), ChannelSpec(cfg.family, row.eta1)
        pb = optimize_strategy("bayesian", *specs, 3, input_mode, opt_cfg)[0]
        pm = optimize_strategy("markovian", *specs, 3, input_mode, opt_cfg)[0]
        diff = round(float(f"{pb:.15g}") - float(f"{pm:.15g}"), 15)  # as the values print
        assert (row.p_bayes, row.p_markov, row.diff) == (pb, pm, diff)


def test_one_search_over_both_kinds_equals_one_per_kind(rng):
    family = ChannelFamily.AMPLITUDE_DAMPING
    eta0, eta1 = [1.4, 1.2, 0.9, 0.5], [0.3, 1.1, 0.2, 0.4]
    cfgs = [OptimizerConfig(seed=s) for s in range(4)]
    alone = {
        kind: maximize_batch(values_objective([kind] * 4, family, eta0, eta1, 3), 3, cfgs)
        for kind in ("bayesian", "markovian")
    }
    problems = [(kind, j) for kind in alone for j in range(4)]
    order = rng.permutation(len(problems))
    kinds = [problems[i][0] for i in order]
    cells = [problems[i][1] for i in order]
    objective = values_objective(
        kinds, family, [eta0[j] for j in cells], [eta1[j] for j in cells], 3
    )
    merged = maximize_batch(objective, 3, [cfgs[j] for j in cells])
    for kind, j, got in zip(kinds, cells, merged):
        want = alone[kind][j]
        assert np.array_equal(got.best_point, want.best_point)
        assert (got.best_value, got.evaluations, got.converged) == (
            want.best_value, want.evaluations, want.converged
        )


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


def test_curve_parallel_matches_serial():
    kwargs = dict(points=[(0.75, 0.4), (0.95, 0.6)], n_max=3, seed=4)
    serial = run_curve(make_config("bit-flip", jobs=1, **kwargs))
    parallel = run_curve(make_config("bit-flip", jobs=2, **kwargs))
    assert len(serial) == 2 * 3 * 3
    strip = [dataclasses.replace(row, wall_time_s=0.0) for row in serial]
    assert strip == [dataclasses.replace(row, wall_time_s=0.0) for row in parallel]


@pytest.mark.parametrize("family,input_mode", [
    ("bit-flip", "flat"),
    ("amplitude-damping", "adaptive"),
])
def test_curve_rows_equal_per_problem_searches(family, input_mode):
    # One lockstep search per shot count over every (point, strategy) gives
    # each row what a search of its own gives, with the seed of its point
    # and, where its rows at n - 1 and n are flat, the warm starts from its
    # row at n - 1.
    cfg = make_config(family, points=[(0.75, 0.4), (0.95, 0.6)], n_max=3,
                      input_mode=input_mode, seed=6)
    rows = run_curve(cfg)
    assert len(rows) == 2 * 3 * 3
    before = {}
    for row in rows:
        i = cfg.points.index((row.eta0, row.eta1))
        prev = before.get((i, row.strategy))
        extra = ()
        if prev is not None and prev.input_mode == row.input_mode == "flat":
            extra = tuple(prev.r_values + (v,) for v in (0.0, 0.5, 1.0))
        opt_cfg = OptimizerConfig(seed=cfg.seed + 7919 * i, extra_starts=extra)
        specs = ChannelSpec(cfg.family, row.eta0), ChannelSpec(cfg.family, row.eta1)
        alone = optimize_strategy(row.strategy, *specs, row.n, input_mode, opt_cfg)
        assert (row.p_succ, row.r_values, row.evaluations) == alone
        before[(i, row.strategy)] = row


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


def test_optimize_strategy_refuses_a_count_past_its_cap():
    specs = ChannelSpec("bit-flip", 0.7), ChannelSpec("bit-flip", 0.3)
    for kind, shots in (("global", 11), ("bayesian", 15)):
        with pytest.raises(ValueError, match=rf"^{kind} strategy capped at \d+ shots, got {shots}$"):
            optimize_strategy(kind, *specs, shots)


def test_warm_starts_of_another_width_are_refused():
    # A start of width 2d used to be read as two starts, one of width d + 1
    # failed in numpy's reshape. The depolarizing family runs no search, and
    # refuses them alike.
    for width in (3, 4):
        cfg = OptimizerConfig(extra_starts=((0.5,) * width,))
        refusal = rf"^extra_starts must have shape \(m, 2\), got \(1, {width}\)$"
        with pytest.raises(ValueError, match=refusal):
            maximize(lambda x: -float(np.sum(x)), 2, cfg)
        for family in ("bit-flip", "depolarizing"):
            specs = ChannelSpec(family, 0.7), ChannelSpec(family, 0.3)
            with pytest.raises(ValueError, match=refusal):
                optimize_strategy("markovian", *specs, 2, "flat", cfg)


@pytest.mark.parametrize("starts,got", [
    (((0.5, 0.5), (0.5,)), "rows of shapes ((2,), (1,))"),
    ((0.5, 0.5), "(2,)"),
    ((((0.5, 0.5),),), "(1, 1, 2)"),
])
def test_warm_starts_that_are_no_array_are_refused_by_the_config(starts, got):
    # A ragged start list used to fail in numpy's conversion, naming no
    # shape, and the depolarizing family took it silently.
    with pytest.raises(ValueError) as info:
        OptimizerConfig(extra_starts=starts)
    assert str(info.value) == f"extra_starts must be an (m, d) array, got {got}"



@pytest.mark.filterwarnings("error")
def test_a_warm_start_outside_the_unit_box_is_refused_by_name():
    # r = 1.5 used to reach the angle map's arcsin: a numpy warning, then a
    # schedule error about a NaN that named neither the start nor 1.5.
    with pytest.raises(ValueError, match=r"got \(1\.5, 0\.2\)$"):
        optimize_strategy("bayesian", ChannelSpec("bit-flip", 0.7), ChannelSpec("bit-flip", 0.3),
                          2, "flat", OptimizerConfig(extra_starts=((1.5, 0.2),)))

def test_angle_map_ends_and_round_trips():
    assert experiments._to_r(0.0) == 0.0 and experiments._to_r(1.0) == 1.0
    assert experiments._to_x(0.0) == 0.0 and experiments._to_x(1.0) == 1.0
    r = np.concatenate([np.linspace(0.0, 1.0, 1001), [1e-300, 5e-324, 1.0 - 2**-53]])
    assert np.abs(experiments._to_r(experiments._to_x(r)) - r).max() <= 1e-15
    # x -> r -> x loses x near 1, where r = 1 - O((1 - x)^2) keeps fewer
    # digits of x; up to x = 0.9 it holds to 1e-15.
    x = np.linspace(0.0, 0.9, 1001)
    assert np.abs(experiments._to_x(experiments._to_r(x)) - x).max() <= 1e-15


def _schedule_of(row):
    """The schedule whose values a curve row prints."""
    if row.input_mode == "flat":
        return InputSchedule.flat(row.r_values)
    widths = level_widths(row.strategy, row.input_mode, row.n)
    ends = np.cumsum(widths).tolist()
    return InputSchedule.adaptive([row.r_values[e - w : e] for w, e in zip(widths, ends)])


@pytest.mark.parametrize("input_mode,strategies", [
    ("flat", ("global", "bayesian", "markovian")),
    ("adaptive", ("bayesian", "markovian")),
])
def test_curve_rows_print_the_inputs_of_their_value(input_mode, strategies):
    # The search runs over the angle; the printed r reproduce p_succ. Flat
    # rows past n = 1 start from the warm starts of the row before.
    cfg = make_config("amplitude-damping", points=[(0.75, 0.4)], n_max=3,
                      strategies=strategies, input_mode=input_mode, seed=5)
    rows = run_curve(cfg)
    assert len(rows) == 3 * len(strategies)
    for row in rows:
        assert all(0.0 <= r <= 1.0 for r in row.r_values)
        specs = ChannelSpec(cfg.family, row.eta0), ChannelSpec(cfg.family, row.eta1)
        sched = _schedule_of(row)
        assert abs(strategy_value(row.strategy, *specs, sched) - row.p_succ) <= 1e-12


def test_sweep_cell_inputs_reproduce_its_values():
    cfg = make_config("bit-flip", grid=(0.0, 1.0, 4), seed=2)
    rows = run_sweep_diff(cfg)
    i, row = 4, rows[4]
    problems = [(kind, (row.eta0, row.eta1), OptimizerConfig(seed=cfg.seed + 104729 * i))
                for kind in ("bayesian", "markovian")]
    (pairs,) = experiments._optimize(problems, cfg.family, (experiments.SWEEP_SHOTS,), "flat")
    found = [res for res, _ in pairs]
    assert (found[0].best_value, found[1].best_value) == (row.p_bayes, row.p_markov)
    specs = ChannelSpec(cfg.family, row.eta0), ChannelSpec(cfg.family, row.eta1)
    for (kind, _, _), res in zip(problems, found):
        sched = InputSchedule.flat(res.best_point)
        assert abs(strategy_value(kind, *specs, sched) - res.best_value) <= 1e-12


def test_optimize_takes_the_quotient_and_one_call_step_for_feedforward_only(monkeypatch):
    # Global groups take neither; feedforward groups take the one-call step,
    # and the mirror quotient on bit-flip only. A problem without starts
    # keeps its own config, which needs no rebuilding.
    seen = []

    def spy(objective, d, cfgs, **kwargs):
        seen.append((d, cfgs, kwargs))
        return maximize_batch(objective, d, cfgs, **kwargs)

    monkeypatch.setattr(experiments, "maximize_batch", spy)
    cfg = OptimizerConfig(max_evals=60)
    for family, mirrored in (("bit-flip", True), ("amplitude-damping", False)):
        seen.clear()
        problems = [(kind, (0.7, 0.3), cfg) for kind in VALID_STRATEGIES]
        experiments._optimize(problems, ChannelFamily(family), (2,), "flat")
        by_kind = {len(cfgs): kwargs for _, cfgs, kwargs in seen}
        assert by_kind == {1: dict(mirrored=False, one_call=False),
                           2: dict(mirrored=mirrored, one_call=True)}
        assert all(c is cfg for _, cfgs, _ in seen for c in cfgs)


def test_grid_steps_past_the_cap_are_refused():
    cap = experiments.GRID_STEPS_MAX
    assert make_config("bit-flip", grid=(0.0, 1.0, cap)).grid[2] == cap
    with pytest.raises(ConfigError, match=f"grid steps must be <= {cap}, got {cap + 1}"):
        make_config("bit-flip", grid=(0.0, 1.0, cap + 1))


# ---------------------------------------------------------------------------
# serialization


def test_csv_json_round_trip():
    cfg = small_curve_config()
    rows = run_curve(cfg)
    csv_buf = io.StringIO()
    json_buf = io.StringIO()
    write_records_csv(rows, dataclasses.asdict(cfg), csv_buf)
    write_records_json(rows, dataclasses.asdict(cfg), json_buf)
    csv_rows = read_records_csv(io.StringIO(csv_buf.getvalue()))
    json_rows = read_records_json(io.StringIO(json_buf.getvalue()))
    assert csv_rows == json_rows
    assert len(csv_rows) == len(rows)



def test_no_rows_write_the_comment_lines_only():
    cfg = dataclasses.asdict(make_config("bit-flip", grid="0:1:3"))
    buf = io.StringIO()
    write_records_csv([], cfg, buf)
    assert buf.getvalue() == (f"# {experiments.TOOL}\n"
                              f"# config: {json.dumps(cfg, sort_keys=True)}\n")
    assert read_records_csv(io.StringIO(buf.getvalue())) == []


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_P = st.floats(0.5, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    sweep=st.builds(experiments.SweepRow, _FINITE, _FINITE, _P, _P, _FINITE),
    curve=st.builds(experiments.ResultRow, st.just("bit-flip"), _FINITE, _FINITE,
                    st.integers(1, 14), st.sampled_from(VALID_STRATEGIES),
                    st.sampled_from(["flat", "adaptive"]), _P,
                    st.lists(_FINITE, max_size=4).map(tuple), st.integers(0, 10**9), _FINITE),
)
def test_csv_and_json_read_back_the_same_records(sweep, curve):
    # One 15-digit pass for a CSV cell and two for a JSON number give the
    # same float: subnormals, signed zeros and 1e300 alike.
    for rows in ([sweep], [curve]):
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        write_records_csv(rows, {}, csv_buf)
        write_records_json(rows, {}, json_buf)
        assert (read_records_csv(io.StringIO(csv_buf.getvalue()))
                == read_records_json(io.StringIO(json_buf.getvalue())))

def test_csv_deterministic_except_wall_time():
    def render():
        rows = run_curve(small_curve_config())
        buf = io.StringIO()
        write_records_csv(rows, dataclasses.asdict(small_curve_config()), buf)
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
    write_records_csv(rows, dataclasses.asdict(cfg), buf)
    corrupted = buf.getvalue().replace("0.5875", "0.3")
    with pytest.raises(ValueError):
        read_records_csv(io.StringIO(corrupted))


def test_read_back_rejects_rows_of_the_wrong_length():
    header = "# qcdisc\neta0,eta1,p_bayes,p_markov,diff\n0.5,0.1,0.7,0.7,0\n"
    for bad in ("0.5,0.1,0.7,0.7", "0.5,0.1,0.7,0.7,0,0.1"):
        with pytest.raises(ValueError, match="line 4"):
            read_records_csv(io.StringIO(header + bad + "\n"))


def test_read_back_names_the_line_and_column_of_a_bad_cell():
    header = "# qcdisc\neta0,eta1,p_bayes,p_markov,diff\n0.5,0.1,0.7,0.7,0\n"
    for bad, refusal in (
        ("0.5,0.1,x,0.7,0", "line 4, column p_bayes: cannot read 'x'"),
        ("0.5,0.1,0.3,0.7,0", "line 4, column p_bayes: 0.3 is not a number in [0.5, 1]"),
        ("0.5,0.1,0.7,nan,0", "line 4, column p_markov: nan is not a number in [0.5, 1]"),
        ("0.5,0.1,0.7,0.7,", "line 4, column diff: cannot read ''"),
    ):
        with pytest.raises(ValueError) as info:
            read_records_csv(io.StringIO(header + bad + "\n"))
        assert str(info.value) == refusal
    curve = "family,n,r_values\nbit-flip,2,0.5;0.5\n"
    for bad, refusal in (("bit-flip,2.5,0.5;0.5", "line 3, column n: cannot read '2.5'"),
                         ("bit-flip,2,0.5;y", "line 3, column r_values: cannot read '0.5;y'")):
        with pytest.raises(ValueError) as info:
            read_records_csv(io.StringIO(curve + bad + "\n"))
        assert str(info.value) == refusal


@pytest.mark.parametrize("value", ["0.7", None, True, [0.7], 0.3])
def test_json_read_back_names_the_row_and_column_of_a_bad_success_probability(value):
    # A string or null used to fail the range check with a TypeError.
    rows = [{"n": 1, "p_succ": 0.7}, {"n": 2, "p_succ": value}]
    with pytest.raises(ValueError) as info:
        read_records_json(io.StringIO(json.dumps({"rows": rows})))
    assert str(info.value) == f"row 1, column p_succ: {value!r} is not a number in [0.5, 1]"


def test_csv_cells_read_back_as_their_declared_types():
    curve_cfg = small_curve_config(n_max=2)
    sweep_cfg = make_config("depolarizing", grid=(0.2, 0.8, 3))
    records = []
    for rows, cfg in ((run_curve(curve_cfg), curve_cfg), (run_sweep_diff(sweep_cfg), sweep_cfg)):
        buf = io.StringIO()
        write_records_csv(rows, dataclasses.asdict(cfg), buf)
        back = read_records_csv(io.StringIO(buf.getvalue()))
        fields = [f.name for f in dataclasses.fields(rows[0])]
        assert back and all(list(rec) == list(fields) for rec in back)
        records += back
    kinds = {"n": int, "evaluations": int, "r_values": list,
             "family": str, "strategy": str, "input_mode": str}
    for rec in records:
        for key, value in rec.items():
            assert type(value) is kinds.get(key, float), key
        for r in rec.get("r_values", ()):
            assert type(r) is float


def test_sweep_rows_round_trip():
    cfg = make_config("bit-flip", grid=(0.2, 0.8, 3), seed=1)
    rows = run_sweep_diff(cfg)
    buf = io.StringIO()
    write_records_csv(rows, dataclasses.asdict(cfg), buf)
    back = read_records_csv(io.StringIO(buf.getvalue()))
    assert len(back) == len(rows)
    for rec, row in zip(back, rows):
        assert abs(rec["p_bayes"] - row.p_bayes) <= 1e-14


# ---------------------------------------------------------------------------
# validate suites


def test_validate_reductions_pass():
    checks = run_validate("strategy-reductions", seed=0)
    assert checks and all(c.passed for c in checks)
    assert "reductions/pure-outputs" in {c.name for c in checks}


def test_validate_reductions_catch_a_bayesian_below_markovian(monkeypatch):
    # A Bayesian walk 1e-9 low on adaptive schedules: only the 3-shot order
    # check uses them.
    exact = experiments.strategy_value

    def wrong(kind, spec0, spec1, sched):
        p = exact(kind, spec0, spec1, sched)
        return p - 1e-9 if kind == "bayesian" and sched.mode == "adaptive" else p

    monkeypatch.setattr(experiments, "strategy_value", wrong)
    failed = [c.name for c in run_validate("strategy-reductions", 0) if not c.passed]
    assert failed == ["reductions/three-shot-bayesian-above-markovian"]


def test_validate_povm_properties_pass():
    checks = run_validate("povm-properties", seed=0)
    assert checks and all(c.passed for c in checks)


def test_validate_oneshot_equals_per_cell_searches():
    # One lockstep search per family gives each cell the result of its own.
    for seed in (0, 3):
        checks = run_validate("oneshot-closed-forms", seed)
        assert [c.name for c in checks] == [f"oneshot/{f.value}" for f in ChannelFamily]
        for family, check in zip(ChannelFamily, checks):
            axis = np.linspace(0.0, ETA_MAX[family], 12)
            worst = 0.0
            for e0 in axis:
                for e1 in axis[axis < e0]:
                    specs = ChannelSpec(family, float(e0)), ChannelSpec(family, float(e1))
                    cfg = OptimizerConfig(seed=seed)
                    p = optimize_strategy("markovian", *specs, 1, "flat", cfg)[0]
                    worst = max(worst, abs(p - closed_form_one_shot(family, e0, e1)))
            assert check.deviation == worst
            assert check.passed


def test_validate_monte_carlo_passes_at_a_former_chance_failure():
    # Seed 100 failed one 3-sigma check at 2e4 trials.
    checks = run_validate("monte-carlo", 100)
    assert len(checks) == 9 and all(c.passed for c in checks)


def test_validate_monte_carlo_catches_a_wrong_tree(monkeypatch):
    # A tree 0.005 off in one family and strategy: inside the old bound
    # (3 sigma at 2e4 trials, 0.0092 at p = 0.75), outside the new one.
    exact = experiments.strategy_value

    def wrong(kind, spec0, spec1, sched):
        p = exact(kind, spec0, spec1, sched)
        return p + 0.005 if (kind, spec0.family) == ("bayesian", ChannelFamily.BIT_FLIP) else p

    monkeypatch.setattr(experiments, "strategy_value", wrong)
    failed = [c.name for c in run_validate("monte-carlo", 0) if not c.passed]
    assert failed == ["monte-carlo/bit-flip/bayesian"]


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


@pytest.mark.parametrize("cmd,settings", [
    ("sweep-diff", {"grid": [0, 1, "x"]}),
    ("curve", {"points": [[0.7]]}),
    ("curve", {"points": [[0.7, 0.3]], "n_max": "abc"}),
    ("sweep-diff", {"grid": [0, 1, 3.9]}),
    # JSON booleans are no numbers
    ("curve", {"points": [[0.7, 0.3]], "n_max": True}),
    ("curve", {"points": [[0.7, 0.3]], "value_tol": True}),
    ("curve", {"points": [[0.7, 0.3]], "max_evals": True}),
    ("curve", {"points": [[0.7, 0.3]], "seed": False}),
    ("curve", {"points": [[True, False]]}),
    ("sweep-diff", {"grid": [False, True, 3]}),
])
def test_cli_config_values_of_the_wrong_type_exit_2(tmp_path, capsys, cmd, settings):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "bit-flip", **settings}))
    assert main([cmd, "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text,key", [
    ('"max_evals": Infinity', "max_evals"),
    ('"seed": 1e400', "seed"),
])
def test_cli_config_infinite_integer_settings_exit_2(tmp_path, capsys, text, key):
    # JSON reads both as a float infinity, whose int() overflows: it ended
    # the run with an OverflowError traceback.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"family": "bit-flip", "grid": "0:1:3", %s}' % text)
    assert main(["sweep-diff", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be an integer, got inf\n"


@pytest.mark.parametrize("key", ["n_max", "max_evals", "max_starts", "seed", "jobs", "grid steps"])
def test_make_config_refuses_infinite_integer_settings(key):
    settings = ({"grid": (0.0, 1.0, math.inf)} if key == "grid steps"
                else {"points": [(0.7, 0.3)], key: math.inf})
    with pytest.raises(ConfigError, match=f"^{key} must be an integer, got inf$"):
        make_config("bit-flip", **settings)


@pytest.mark.parametrize("key", ["n_max", "max_evals", "max_starts", "jobs", "grid steps"])
def test_make_config_refuses_integer_settings_numpy_cannot_hold(key):
    # numpy counts in a C long: a max_evals of 2**63 failed the search in
    # numpy's int64 casting, and a grid of 2**63 steps failed in np.linspace.
    # A seed keeps no upper limit.
    settings = ({"grid": (0.0, 1.0, 2**63)} if key == "grid steps"
                else {"points": [(0.7, 0.3)], key: 2**63})
    with pytest.raises(ConfigError, match=rf"^{key} must be < 2\*\*63, got {2**63}$"):
        make_config("bit-flip", **settings)
    assert make_config("bit-flip", points=[(0.7, 0.3)], seed=2**63).seed == 2**63


def test_cli_config_null_settings_exit_2(tmp_path, capsys):
    # make_config holds the defaults; a null in the file is refused, not defaulted.
    for key in ("n_max", "strategies", "input_mode", "value_tol", "max_evals", "max_starts",
                "seed", "jobs"):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"family": "bit-flip", "points": [[0.7, 0.3]], key: None}))
        assert main(["curve", "--config", str(cfg_file)]) == 2, key
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cmd,settings,key", [
    ("curve", {"points": [[0.7, 0.3]], "n-max": 3}, "n-max"),
    ("curve", {"points": [[0.7, 0.3]], "fmt": "json"}, "fmt"),
    ("sweep-diff", {"grid": [0, 1, 3], "points": [[0.7, 0.3]]}, "points"),
    ("sweep-diff", {"grid": [0, 1, 3], "strategies": "global"}, "strategies"),
    ("sweep-diff", {"grid": [0, 1, 3], "n_max": 3}, "n_max"),
])
def test_cli_config_keys_the_command_does_not_read_exit_2(tmp_path, capsys, cmd, settings, key):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "bit-flip", **settings}))
    assert main([cmd, "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err


def test_cli_config_file_out_and_format(tmp_path):
    out = tmp_path / "rows.json"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "depolarizing", "points": [[0.75, 0.4]],
                                    "strategies": "markovian", "format": "json",
                                    "out": str(out)}))
    assert main(["curve", "--config", str(cfg_file)]) == 0
    with open(out) as fh:
        assert len(read_records_json(fh)) == 1


def test_cli_rejects_unknown_format(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "depolarizing", "points": [[0.75, 0.4]],
                                    "format": "xml"}))
    out = tmp_path / "rows.xml"
    assert main(["curve", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "format must be csv or json" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unwritable_out_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    def never(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_sweep_diff", never)
    monkeypatch.setattr(cli, "run_curve", never)
    out = tmp_path / "missing" / "x.csv"
    assert main(["sweep-diff", "--family", "bit-flip", "--grid", "0:1:3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # An existing directory cannot be opened as a file.
    argv = ["curve", "--family", "depolarizing", "--eta0", "0.75", "--eta1", "0.4"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--n-max", "2", "--max-starts", "2"],
    ["--n-max", "4", "--seed", "-1"],
    ["--value-tol", "-1"],
])
def test_cli_optimizer_settings_that_cannot_run_exit_2(capsys, flags):
    argv = ["curve", "--family", "bit-flip", "--eta0", "0.7", "--eta1", "0.3",
            "--strategies", "markovian"]
    assert main(argv + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_missing_family_exits_2():
    proc = run_cli("curve", "--eta0", "0.5", "--eta1", "0.2")
    assert proc.returncode == 2


def test_cli_validate_exit_codes():
    proc = run_cli("validate", "strategy-reductions")
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
    proc = run_cli("validate", "not-a-suite")
    assert proc.returncode == 2
    proc = run_cli("validate", "monte-carlo", "--seed", "-1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("cmd", ["curve", "sweep-diff"])
def test_cli_flags_are_the_config_keys(tmp_path, capsys, cmd):
    # The keys a config file may hold, as the refusal of an unknown one lists
    # them, and the flags' destinations: one list, with the points given as
    # --eta0/--eta1 pairs.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "bit-flip", "no_such_key": 1}))
    assert main([cmd, "--config", str(cfg_file)]) == 2
    keys = capsys.readouterr().err.strip().split("; it reads ")[1].split(", ")
    dests = set(vars(cli.build_parser().parse_args([cmd]))) - {"cmd", "config"}
    if "points" in keys:
        dests = dests - {"eta0", "eta1"} | {"points"}
    assert len(keys) == len(set(keys)) and set(keys) == dests


_POINT = ["--eta0", "0.7", "--eta1", "0.3"]


@pytest.mark.parametrize("argv,setting", [
    (["curve", "--family", "bit-flip", *_POINT, "--seed", "1.5"], "seed"),
    (["curve", "--family", "nope", *_POINT], "family"),
    (["curve", "--family", "bit-flip", *_POINT, "--input-mode", "sideways"], "input_mode"),
    (["sweep-diff", "--family", "bit-flip", "--grid", "0:1:3", "--format", "xml"], "format"),
    (["curve", "--family", "bit-flip", "--eta0", "x", "--eta1", "0.3"], "eta0"),
    (["validate", "monte-carlo", "--seed", "x"], "seed"),
    (["sweep-diff", "--family", "bit-flip", "--grid", "0:1:3", "--max-evals", str(10**20)],
     "max_evals"),
    (["sweep-diff", "--family", "bit-flip", "--grid", f"0:1:{10**20}"], "grid steps"),
    (["sweep-diff", "--family", "bit-flip", "--grid", f"0:1:{2**63 - 1}"], "grid steps"),
    (["sweep-diff", "--family", "bit-flip", "--grid", "0:1:4000000000"], "grid steps"),
])
def test_cli_bad_flag_values_return_2(capsys, argv, setting):
    # A flag's text is parsed by make_config or run_validate, as a config
    # file's value is: main returns 2 with one error line instead of
    # argparse raising SystemExit.
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and setting in err


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
