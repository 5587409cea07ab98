"""Experiment drivers: success-probability curves, Bayesian-vs-Markovian
difference sweeps, and self-check suites, with CSV/JSON serialization.

Amplitude-damping noise parameters cross the user boundary as fractions of
pi/2 (the natural axis for that family); configs keep both the entered and
the raw radian values so rows are unambiguous.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import ChannelFamily, ChannelSpec, ETA_MAX
from .helstrom import WeightedPair, brute_force_povm, optimal_povm, povm_defect
# maximize is not called here, but stays importable from this module: the
# traced benchmark run (perfbench/run.py) wraps experiments.maximize.
from .optimizer import BoxDomain, OptimizerConfig, OptResult, maximize, maximize_batch  # noqa: F401
from .strategies import (
    GLOBAL_SHOT_CAP,
    InputSchedule,
    StrategyKind,
    simulate_protocol,
    strategy_value,
    values,
)

__all__ = [
    "CheckResult",
    "ConfigError",
    "ExperimentConfig",
    "ResultRow",
    "SweepRow",
    "closed_form_one_shot",
    "make_config",
    "optimize_strategy",
    "read_records_csv",
    "read_records_json",
    "run_curve",
    "run_sweep_diff",
    "run_validate",
    "write_records_csv",
    "write_records_json",
]

TOOL = f"qcdisc {__version__}"
SWEEP_SHOTS = 3
ADAPTIVE_PARAM_CAP = 64

VALID_STRATEGIES = ("global", "bayesian", "markovian")
VALID_SUITES = (
    "oneshot-closed-forms",
    "strategy-reductions",
    "monte-carlo",
    "povm-properties",
)

CURVE_FIELDS = (
    "family",
    "eta0",
    "eta1",
    "n",
    "strategy",
    "input_mode",
    "p_succ",
    "r_values",
    "evaluations",
    "wall_time_s",
)
SWEEP_FIELDS = ("eta0", "eta1", "p_bayes", "p_markov", "diff")


class ConfigError(ValueError):
    """Bad experiment configuration; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    family: ChannelFamily
    points: tuple = ()
    points_entered: tuple = ()
    grid: tuple | None = None
    grid_entered: tuple | None = None
    n_max: int = 1
    strategies: tuple = VALID_STRATEGIES
    input_mode: str = "flat"
    value_tol: float = 1e-9
    max_evals: int = 20000
    max_starts: int = 64
    seed: int = 0
    jobs: int = 1

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["family"] = self.family.value
        d["points"] = [list(p) for p in self.points]
        d["points_entered"] = [list(p) for p in self.points_entered]
        d["grid"] = list(self.grid) if self.grid else None
        d["grid_entered"] = list(self.grid_entered) if self.grid_entered else None
        d["strategies"] = list(self.strategies)
        return d


@dataclass(frozen=True)
class ResultRow:
    family: str
    eta0: float
    eta1: float
    n: int
    strategy: str
    input_mode: str
    p_succ: float
    r_values: tuple
    evaluations: int
    wall_time_s: float


@dataclass(frozen=True)
class SweepRow:
    eta0: float
    eta1: float
    p_bayes: float
    p_markov: float
    diff: float


def _eta_scale(family: ChannelFamily) -> float:
    """Entered-to-raw conversion; fractions of pi/2 for amplitude damping."""
    return math.pi / 2 if family is ChannelFamily.AMPLITUDE_DAMPING else 1.0


def make_config(
    family,
    points=None,
    grid=None,
    n_max: int = 1,
    strategies=VALID_STRATEGIES,
    input_mode: str = "flat",
    value_tol: float = 1e-9,
    max_evals: int = 20000,
    max_starts: int = 64,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentConfig:
    """Validate user-facing values and build an :class:`ExperimentConfig`.

    ``points`` and ``grid`` are in entered units (fractions of pi/2 for
    amplitude damping, raw eta otherwise).
    """
    try:
        family = ChannelFamily(family)
    except ValueError:
        raise ConfigError(f"unknown family {family!r}") from None
    scale = _eta_scale(family)
    hi = ETA_MAX[family]

    entered_points = tuple((float(a), float(b)) for a, b in (points or ()))
    raw_points = tuple((a * scale, b * scale) for a, b in entered_points)
    for (e0, e1), (raw0, raw1) in zip(entered_points, raw_points):
        if not (0.0 <= raw1 <= hi and 0.0 <= raw0 <= hi):
            raise ConfigError(
                f"point ({e0:g}, {e1:g}) outside the valid range for {family.value}"
            )
        if raw0 <= raw1:
            raise ConfigError(f"point ({e0:g}, {e1:g}) must satisfy eta0 > eta1")

    raw_grid = entered_grid = None
    if grid is not None:
        gmin, gmax, steps = grid
        gmin, gmax, steps = float(gmin), float(gmax), int(steps)
        if steps < 2:
            raise ConfigError(f"grid needs at least 2 steps, got {steps}")
        if not (0.0 <= gmin * scale < gmax * scale <= hi + 1e-12):
            raise ConfigError(f"grid [{gmin:g}, {gmax:g}] invalid for {family.value}")
        entered_grid = (gmin, gmax, steps)
        raw_grid = (gmin * scale, gmax * scale, steps)

    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    strategies = tuple(strategies)
    if not strategies or any(s not in VALID_STRATEGIES for s in strategies):
        raise ConfigError(f"strategies must be a nonempty subset of {VALID_STRATEGIES}")
    if input_mode not in ("flat", "adaptive"):
        raise ConfigError(f"input_mode must be flat or adaptive, got {input_mode!r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    return ExperimentConfig(
        family=family,
        points=raw_points,
        points_entered=entered_points,
        grid=raw_grid,
        grid_entered=entered_grid,
        n_max=int(n_max),
        strategies=strategies,
        input_mode=input_mode,
        value_tol=float(value_tol),
        max_evals=int(max_evals),
        max_starts=int(max_starts),
        seed=int(seed),
        jobs=int(jobs),
    )


# ---------------------------------------------------------------------------
# input optimization


def _layout(kind: StrategyKind, shots: int, input_mode: str) -> tuple[int, str]:
    """Parameter count and schedule mode of a strategy's input search."""
    if input_mode == "adaptive" and kind is not StrategyKind.GLOBAL:
        # One r per history node (Bayesian) or per last outcome (Markovian).
        d = 2**shots - 1 if kind is StrategyKind.BAYESIAN else 2 * shots - 1
        if d <= ADAPTIVE_PARAM_CAP:
            return d, "adaptive"
        # Too many free parameters: tie them per shot.
    return shots, "flat"


def _optimize_cells(kind, family: ChannelFamily, cells, shots: int, input_mode: str, opt_cfgs):
    """Best inputs for one strategy at every ``(eta0, eta1)`` cell.

    One lockstep search over every start of every cell, cell ``i`` with
    config ``opt_cfgs[i]``; returns one :class:`OptResult` per cell. The
    depolarizing family is input independent, so each cell is evaluated
    once at the all-|0> schedule instead.
    """
    kind = StrategyKind(kind)
    if family is ChannelFamily.DEPOLARIZING:
        sched = InputSchedule.flat((0.0,) * shots)
        return [
            OptResult(
                np.zeros(shots),
                strategy_value(kind, ChannelSpec(family, e0), ChannelSpec(family, e1), sched),
                1,
                True,
            )
            for e0, e1 in cells
        ]
    d, mode = _layout(kind, shots, input_mode)
    eta0 = np.array([e0 for e0, _ in cells], dtype=float)
    eta1 = np.array([e1 for _, e1 in cells], dtype=float)
    return maximize_batch(
        lambda cell, x: values(kind, family, eta0[cell], eta1[cell], x, mode),
        BoxDomain.unit(d),
        opt_cfgs,
    )


def optimize_strategy(
    kind,
    spec0: ChannelSpec,
    spec1: ChannelSpec,
    shots: int,
    input_mode: str = "flat",
    opt_cfg: OptimizerConfig = OptimizerConfig(),
):
    """Best inputs for one strategy at a fixed shot count.

    Returns ``(p_succ, r_values, evaluations)``; in adaptive mode
    ``r_values`` holds the levels of the schedule concatenated. The
    depolarizing family is input independent, so it is evaluated once at
    the all-|0> schedule instead of being optimized.
    """
    if spec0.family is not spec1.family:
        raise ValueError(
            f"channel families differ: {spec0.family.value} vs {spec1.family.value}"
        )
    res = _optimize_cells(
        kind, spec0.family, [(spec0.eta, spec1.eta)], shots, input_mode, [opt_cfg]
    )[0]
    return res.best_value, tuple(float(v) for v in res.best_point), res.evaluations


def _warn_unconverged(missed: int, total: int) -> None:
    if missed:
        print(
            f"warning: {missed} of {total} optimizations did not converge",
            file=sys.stderr,
        )


def _curve_task(payload) -> tuple[list[ResultRow], int]:
    """Rows of one (point, strategy) pair, and how many did not converge."""
    cfg, point_index, strategy = payload
    point = cfg.points[point_index]
    rows = []
    missed = 0
    prev_best: tuple | None = None
    for shots in range(1, cfg.n_max + 1):
        if strategy == "global" and shots > GLOBAL_SHOT_CAP:
            print(
                f"warning: global strategy skipped for n={shots} "
                f"(cap {GLOBAL_SHOT_CAP})",
                file=sys.stderr,
            )
            continue
        extra = ()
        if prev_best is not None and len(prev_best) == shots - 1:
            extra = tuple(prev_best + (v,) for v in (0.0, 0.5, 1.0))
        opt_cfg = OptimizerConfig(
            value_tol=cfg.value_tol,
            max_evals=cfg.max_evals,
            seed=cfg.seed + 7919 * point_index,
            max_starts=cfg.max_starts,
            extra_starts=extra,
        )
        t0 = time.perf_counter()
        res = _optimize_cells(
            strategy, cfg.family, [point], shots, cfg.input_mode, [opt_cfg]
        )[0]
        elapsed = time.perf_counter() - t0
        r_values = tuple(float(v) for v in res.best_point)
        missed += not res.converged
        rows.append(
            ResultRow(
                family=cfg.family.value,
                eta0=point[0],
                eta1=point[1],
                n=shots,
                strategy=strategy,
                input_mode=cfg.input_mode,
                p_succ=res.best_value,
                r_values=r_values,
                evaluations=res.evaluations,
                wall_time_s=elapsed,
            )
        )
        prev_best = r_values if cfg.input_mode == "flat" else None
    return rows, missed


def run_curve(cfg: ExperimentConfig) -> list[ResultRow]:
    """Optimized success probability for every (point, n, strategy)."""
    if not cfg.points:
        raise ConfigError("curve requires at least one (eta0, eta1) point")
    payloads = [
        (cfg, pi, strat) for pi in range(len(cfg.points)) for strat in cfg.strategies
    ]
    groups = _map_tasks(_curve_task, payloads, cfg.jobs)
    by_key = {}
    for (_, pi, strat), (rows, _) in zip(payloads, groups):
        for row in rows:
            by_key[(pi, row.n, strat)] = row
    ordered = []
    for pi in range(len(cfg.points)):
        for shots in range(1, cfg.n_max + 1):
            for strat in cfg.strategies:
                row = by_key.get((pi, shots, strat))
                if row is not None:
                    ordered.append(row)
    _warn_unconverged(sum(missed for _, missed in groups), len(ordered))
    return ordered


def _sweep_task(payload) -> tuple[list[SweepRow], int]:
    """Rows of a run of grid cells, and how many optimizations missed."""
    cfg, cells, seeds = payload
    opt_cfgs = [
        OptimizerConfig(
            value_tol=cfg.value_tol,
            max_evals=cfg.max_evals,
            seed=seed,
            max_starts=cfg.max_starts,
        )
        for seed in seeds
    ]
    bayes = _optimize_cells(
        "bayesian", cfg.family, cells, SWEEP_SHOTS, cfg.input_mode, opt_cfgs
    )
    markov = _optimize_cells(
        "markovian", cfg.family, cells, SWEEP_SHOTS, cfg.input_mode, opt_cfgs
    )
    rows = [
        SweepRow(e0, e1, b.best_value, m.best_value, b.best_value - m.best_value)
        for (e0, e1), b, m in zip(cells, bayes, markov)
    ]
    return rows, sum(not res.converged for res in bayes + markov)


def run_sweep_diff(cfg: ExperimentConfig) -> list[SweepRow]:
    """Bayesian minus Markovian success at three shots over an eta grid.

    Cells are restricted to the lower triangle eta0 > eta1; both sides are
    input-optimized independently, each cell with its own seed. ``jobs``
    splits the cells into that many contiguous runs, each optimized in one
    lockstep search per strategy.
    """
    if cfg.grid is None:
        raise ConfigError("sweep-diff requires a grid specification")
    gmin, gmax, steps = cfg.grid
    axis = np.linspace(gmin, gmax, steps)
    cells = [(float(e0), float(e1)) for e0 in axis for e1 in axis if e0 > e1]
    seeds = [cfg.seed + 104729 * i for i in range(len(cells))]
    bounds = np.linspace(0, len(cells), min(cfg.jobs, len(cells)) + 1).round().astype(int)
    payloads = [(cfg, cells[a:b], seeds[a:b]) for a, b in zip(bounds, bounds[1:])]
    parts = _map_tasks(_sweep_task, payloads, cfg.jobs)
    _warn_unconverged(sum(missed for _, missed in parts), 2 * len(cells))
    return [row for rows, _ in parts for row in rows]


def _map_tasks(fn, payloads, jobs: int):
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # Imported here: the pool machinery costs about 2 MiB of memory, which a
    # run with one job never uses.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(payloads) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


# ---------------------------------------------------------------------------
# validation suites


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.bound


def closed_form_one_shot(family: ChannelFamily, eta0: float, eta1: float) -> float:
    """Input-optimized single-shot success probability, closed form."""
    family = ChannelFamily(family)
    if family is ChannelFamily.DEPOLARIZING:
        return 0.5 * (1.0 + 0.5 * (eta0 - eta1))
    if family is ChannelFamily.BIT_FLIP:
        return 0.5 * (1.0 + (eta0 - eta1))
    gamma = math.cos(eta0) + math.cos(eta1)
    if gamma < 1.0 / math.sqrt(2.0):
        return 0.25 * (
            2.0 + (math.cos(eta1) - math.cos(eta0)) / math.sqrt(1.0 - gamma * gamma)
        )
    return 0.5 * (math.sin(eta0) ** 2 + math.cos(eta1) ** 2)


def _random_density(rng) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _random_spec_pair(rng, family: ChannelFamily):
    hi = ETA_MAX[family]
    a, b = sorted(rng.uniform(0.0, hi, size=2))
    if a == b:
        a *= 0.5
    return ChannelSpec(family, b), ChannelSpec(family, a)


def _suite_oneshot(seed: int) -> list[CheckResult]:
    checks = []
    for family in ChannelFamily:
        hi = ETA_MAX[family]
        axis = np.linspace(0.0, hi, 12)
        worst = 0.0
        for e0 in axis:
            for e1 in axis:
                if e0 <= e1:
                    continue
                spec0 = ChannelSpec(family, float(e0))
                spec1 = ChannelSpec(family, float(e1))
                p, _, _ = optimize_strategy(
                    "markovian", spec0, spec1, 1, "flat", OptimizerConfig(seed=seed)
                )
                worst = max(worst, abs(p - closed_form_one_shot(family, e0, e1)))
        checks.append(CheckResult(f"oneshot/{family.value}", worst, 1e-6))
    return checks


def _suite_reductions(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_one = 0.0
    worst_two = 0.0
    for i in range(20):
        family = list(ChannelFamily)[i % 3]
        spec0, spec1 = _random_spec_pair(rng, family)
        r1 = InputSchedule.flat([rng.random()])
        ref = strategy_value("markovian", spec0, spec1, r1)
        for kind in VALID_STRATEGIES:
            worst_one = max(worst_one, abs(strategy_value(kind, spec0, spec1, r1) - ref))
        r2 = InputSchedule.flat(rng.random(2))
        worst_two = max(
            worst_two,
            abs(
                strategy_value("bayesian", spec0, spec1, r2)
                - strategy_value("markovian", spec0, spec1, r2)
            ),
        )
    return [
        CheckResult("reductions/one-shot", worst_one, 1e-12),
        CheckResult("reductions/two-shot-bayes-markov", worst_two, 1e-12),
    ]


def _suite_monte_carlo(seed: int) -> list[CheckResult]:
    trials = 20000
    checks = []
    sched = InputSchedule.flat([0.3, 0.7, 0.5])
    for family, (f0, f1) in (
        (ChannelFamily.DEPOLARIZING, (0.75, 0.4)),
        (ChannelFamily.BIT_FLIP, (0.75, 0.4)),
        (ChannelFamily.AMPLITUDE_DAMPING, (0.75, 0.4)),
    ):
        scale = _eta_scale(family)
        spec0 = ChannelSpec(family, f0 * scale)
        spec1 = ChannelSpec(family, f1 * scale)
        for kind in VALID_STRATEGIES:
            p = strategy_value(kind, spec0, spec1, sched)
            freq = simulate_protocol(kind, spec0, spec1, sched, trials, seed)
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
            checks.append(
                CheckResult(f"monte-carlo/{family.value}/{kind}", abs(freq - p), 3.0 * sigma)
            )
    return checks


def _suite_povm(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_defect = 0.0
    worst_guess = 0.0
    worst_trace = 0.0
    low = 0.0
    high = 0.0
    for _ in range(300):
        w = WeightedPair(float(rng.random()), _random_density(rng), _random_density(rng))
        res = optimal_povm(w)
        worst_defect = max(worst_defect, povm_defect(res.povm))
        worst_guess = max(worst_guess, max(w.p0, 1.0 - w.p0) - res.p_succ)
        worst_trace = max(
            worst_trace, abs(res.lambda0 + res.lambda1 - (2.0 * w.p0 - 1.0))
        )
        gap = res.p_succ - brute_force_povm(w, 256)
        low = min(low, gap)
        high = max(high, gap)
    return [
        CheckResult("povm/completeness-positivity", worst_defect, 1e-10),
        CheckResult("povm/never-worse-than-guessing", worst_guess, 1e-12),
        CheckResult("povm/delta-trace-identity", worst_trace, 1e-12),
        CheckResult("povm/brute-force-lower", -low, 1e-9),
        CheckResult("povm/brute-force-upper", high, 1e-3),
    ]


def run_validate(suite: str, seed: int = 0) -> list[CheckResult]:
    """Run one named self-check suite and return its checks."""
    suites = {
        "oneshot-closed-forms": _suite_oneshot,
        "strategy-reductions": _suite_reductions,
        "monte-carlo": _suite_monte_carlo,
        "povm-properties": _suite_povm,
    }
    if suite not in suites:
        raise ConfigError(f"unknown suite {suite!r}; choose from {VALID_SUITES}")
    return suites[suite](seed)


# ---------------------------------------------------------------------------
# serialization


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _sig15(value: float) -> float:
    return float(f"{value:.15g}")


def _row_record(row) -> dict:
    rec = {}
    for key, value in dataclasses.asdict(row).items():
        if isinstance(value, float):
            rec[key] = _sig15(value)
        elif isinstance(value, tuple):
            rec[key] = [_sig15(v) for v in value]
        else:
            rec[key] = value
    return rec


def write_records_csv(rows, fields, cfg_dict: dict, fh) -> None:
    """CSV with '#' comment lines carrying the tool version and config."""
    fh.write(f"# {TOOL}\n")
    fh.write(f"# config: {json.dumps(cfg_dict, sort_keys=True)}\n")
    fh.write(",".join(fields) + "\n")
    for row in rows:
        rec = _row_record(row)
        cells = []
        for key in fields:
            value = rec[key]
            if isinstance(value, list):
                cells.append(";".join(_fmt(v) for v in value))
            else:
                cells.append(_fmt(value))
        fh.write(",".join(cells) + "\n")


def write_records_json(rows, fields, cfg_dict: dict, fh) -> None:
    payload = {
        "tool": TOOL,
        "config": cfg_dict,
        "rows": [_row_record(row) for row in rows],
    }
    json.dump(payload, fh, indent=1, sort_keys=True)
    fh.write("\n")


_INT_FIELDS = {"n", "evaluations"}
_LIST_FIELDS = {"r_values"}
_STR_FIELDS = {"family", "strategy", "input_mode"}


def _check_p_succ(rec: dict) -> None:
    for key in ("p_succ", "p_bayes", "p_markov"):
        if key in rec and not (0.5 - 1e-9 <= rec[key] <= 1.0 + 1e-9):
            raise ValueError(f"{key}={rec[key]} outside [0.5, 1]")


def read_records_csv(fh) -> list[dict]:
    fields = None
    records = []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if fields is None:
            fields = line.split(",")
            continue
        cells = line.split(",")
        rec = {}
        for key, cell in zip(fields, cells):
            if key in _STR_FIELDS:
                rec[key] = cell
            elif key in _INT_FIELDS:
                rec[key] = int(cell)
            elif key in _LIST_FIELDS:
                rec[key] = [float(v) for v in cell.split(";")] if cell else []
            else:
                rec[key] = float(cell)
        _check_p_succ(rec)
        records.append(rec)
    return records


def read_records_json(fh) -> list[dict]:
    payload = json.load(fh)
    records = payload["rows"]
    for rec in records:
        _check_p_succ(rec)
    return records
