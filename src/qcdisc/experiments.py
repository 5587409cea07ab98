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
import os
import sys
import time
import typing
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channels import ChannelFamily, ChannelSpec, ETA_MAX, MIRRORED
from .helstrom import WeightedPair, brute_force_povm, optimal_povm, povm_defect
# maximize is not called here, but stays importable from this module: the
# traced benchmark run (perfbench/run.py) wraps experiments.maximize.
from .optimizer import OptimizerConfig, OptResult, _whole, maximize, maximize_batch  # noqa: F401
from .strategies import (
    SHOT_CAP,
    InputSchedule,
    ScheduleMode,
    StrategyKind,
    _check_family,
    _check_shots,
    level_widths,
    simulate_protocol,
    strategy_value,
    values_objective,
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
# Most steps of a sweep's grid: a sweep holds the searches of all its
# steps * (steps - 1) / 2 cells at once, and its peak memory grows by up to
# 0.15 MiB a cell (amplitude damping, adaptive; 305 MiB at 60 steps), so
# 200 steps (19 900 cells) take about 3 GiB.
GRID_STEPS_MAX = 200

VALID_STRATEGIES = tuple(kind.value for kind in StrategyKind)
# The strategies that choose each shot's measurement from earlier outcomes.
_FEEDFORWARD = (StrategyKind.BAYESIAN, StrategyKind.MARKOVIAN)


class ConfigError(ValueError):
    """Bad experiment configuration; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run configuration; build it with :func:`make_config`."""

    family: ChannelFamily
    points: tuple
    points_entered: tuple
    grid: tuple | None
    grid_entered: tuple | None
    n_max: int
    strategies: tuple
    input_mode: str
    value_tol: float
    max_evals: int
    max_starts: int
    seed: int
    jobs: int


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


def _number(kind, value, name: str, low=None, c_long=True):
    """``kind(value)``, or a :class:`ConfigError` naming the setting; an
    integer setting takes no fraction, no setting a boolean, and an integer
    given a ``low`` keeps the rule of :func:`~qcdisc.optimizer._whole`."""
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        number = None
    if number is None or (isinstance(value, float) and number != value):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    try:
        return number if low is None else _whole(number, name, low, c_long)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def make_config(
    family,
    points=None,
    grid=None,
    n_max=None,
    strategies=None,
    input_mode: str = "flat",
    value_tol: float = OptimizerConfig.value_tol,
    max_evals: int = OptimizerConfig.max_evals,
    max_starts: int = OptimizerConfig.max_starts,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentConfig:
    """Validate user-facing values and build an :class:`ExperimentConfig`.

    ``points`` and ``grid`` are in entered units: fractions of the family's
    eta range, which is pi/2 for amplitude damping and 1 otherwise. ``grid``
    may be ``"MIN:MAX:STEPS"`` and ``strategies`` ``"a,b"``, as on the
    command line. A curve (points) runs n = 1 and every strategy unless told
    otherwise; a sweep (grid) runs the feedforward strategies at
    ``SWEEP_SHOTS``, and takes neither setting.
    """
    try:
        family = ChannelFamily(family)
    except ValueError:
        families = ", ".join(family.value for family in ChannelFamily)
        raise ConfigError(f"unknown family {family!r}; choose from {families}") from None
    hi = ETA_MAX[family]

    try:
        entered_points = tuple(
            (_number(float, a, "eta0"), _number(float, b, "eta1")) for a, b in (points or ())
        )
    except (TypeError, ValueError):  # _number's ConfigError too: name all the points
        raise ConfigError(f"points must be [eta0, eta1] pairs of numbers, got {points!r}") from None
    raw_points = tuple((a * hi, b * hi) for a, b in entered_points)
    for (e0, e1), (raw0, raw1) in zip(entered_points, raw_points):
        if not (0.0 <= raw1 <= hi and 0.0 <= raw0 <= hi):
            raise ConfigError(
                f"point ({e0:g}, {e1:g}) outside the valid range for {family.value}"
            )
        if raw0 <= raw1:
            raise ConfigError(f"point ({e0:g}, {e1:g}) must satisfy eta0 > eta1")
    if len(set(raw_points)) != len(raw_points):
        raise ConfigError(f"points must name each (eta0, eta1) pair once, got {entered_points!r}")

    raw_grid = entered_grid = None
    if grid is not None:
        if points is not None or n_max is not None or strategies is not None:
            raise ConfigError("a grid config takes no points, n_max or strategies")
        n_max, strategies = SWEEP_SHOTS, [kind.value for kind in _FEEDFORWARD]
        try:
            gmin, gmax, steps = grid.split(":") if isinstance(grid, str) else grid
        except (TypeError, ValueError):
            raise ConfigError(
                f"grid must be MIN:MAX:STEPS or [min, max, steps], got {grid!r}"
            ) from None
        gmin, gmax = _number(float, gmin, "grid min"), _number(float, gmax, "grid max")
        steps = _number(int, steps, "grid steps", 2)
        if steps > GRID_STEPS_MAX:
            raise ConfigError(f"grid steps must be <= {GRID_STEPS_MAX}, got {steps}")
        if not (0.0 <= gmin * hi < gmax * hi <= hi):
            raise ConfigError(f"grid [{gmin:g}, {gmax:g}] invalid for {family.value}")
        entered_grid = (gmin, gmax, steps)
        raw_grid = (gmin * hi, gmax * hi, steps)

    n_max = _number(int, 1 if n_max is None else n_max, "n_max", 1)
    strategies = VALID_STRATEGIES if strategies is None else strategies
    if isinstance(strategies, str):
        strategies = [s.strip() for s in strategies.split(",") if s.strip()]
    try:
        strategies = tuple(strategies)
    except TypeError:
        strategies = ()
    if not strategies or any(s not in VALID_STRATEGIES for s in strategies):
        raise ConfigError(f"strategies must be a nonempty subset of {VALID_STRATEGIES}")
    if len(set(strategies)) != len(strategies):
        raise ConfigError(f"strategies must name each strategy once, got {strategies!r}")
    modes = [mode.value for mode in ScheduleMode]
    if input_mode not in modes:
        raise ConfigError(f"input_mode must be {' or '.join(modes)}, got {input_mode!r}")
    jobs = _number(int, jobs, "jobs", 1)
    opt = dict(
        value_tol=_number(float, value_tol, "value_tol"),
        max_evals=_number(int, max_evals, "max_evals"),
        max_starts=_number(int, max_starts, "max_starts"),
        seed=_number(int, seed, "seed"),
    )
    try:  # OptimizerConfig holds the limits of the search settings
        OptimizerConfig(**opt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return ExperimentConfig(
        family=family,
        points=raw_points,
        points_entered=entered_points,
        grid=raw_grid,
        grid_entered=entered_grid,
        n_max=n_max,
        strategies=strategies,
        input_mode=input_mode,
        jobs=jobs,
        **opt,
    )


# ---------------------------------------------------------------------------
# input optimization


def _layout(kind: StrategyKind, shots: int, input_mode: str) -> tuple[int, str]:
    """Parameter count and schedule mode of a strategy's input search; an
    adaptive schedule over ``ADAPTIVE_PARAM_CAP`` parameters is tied per shot."""
    if input_mode == "adaptive" and kind is not StrategyKind.GLOBAL:
        d = sum(level_widths(kind, input_mode, shots))
        if d <= ADAPTIVE_PARAM_CAP:
            return d, "adaptive"
    return shots, "flat"


_HALF_PI = 0.5 * math.pi


def _to_r(x):
    """The input r of the search coordinate x in [0, 1]: r = sin^2(pi x / 2),
    with r = 0 and 1 exactly at x = 0 and 1."""
    return np.sin(_HALF_PI * np.asarray(x, dtype=float)) ** 2


def _to_x(r):
    """The search coordinate of the input r in [0, 1], inverse of :func:`_to_r`."""
    return np.arcsin(np.sqrt(np.asarray(r, dtype=float))) / _HALF_PI


def _optimize(problems, family: ChannelFamily, counts, input_mode: str):
    """Best inputs of many ``(kind, (eta0, eta1), opt_cfg)`` problems at each
    of a run of consecutive shot counts: per count, one ``(result, wall time
    of all the count's searches)`` per problem, in order, the result None
    past the problem's ``SHOT_CAP``, its ``best_point`` in r.

    At each count, the searches of one parameter count and schedule mode,
    all global or all feedforward, run in one lockstep on one objective.
    They run over the angle x with r = sin^2(pi x / 2): every value is even
    in the angle about both ends of the box, so an optimum at r = 0 or 1,
    where values move like sqrt(r) or sqrt(1 - r), is a smooth stationary
    point in x. A feedforward search takes the optimizer's one-call step,
    as its calls cost mostly per call, and on a family of ``MIRRORED`` its
    lattice of starts is taken modulo the mirror r -> 1 - r, which in x is
    x -> 1 - x; a global search takes neither. A problem's own
    ``extra_starts``, in r, are for a one-count call, and refused for every
    family if not of its layout's width. A search flat at the count before
    also starts from its best inputs there, extended by 0, 1/2 and 1 (it is
    flat at this count too, as an adaptive layout only grows with the
    count); a problem with no starts of either kind keeps its config. The
    depolarizing family is input independent: each objective is evaluated
    once, at the zero point.
    """
    warm = [()] * len(problems)  # each problem's starts from the count before
    out = []
    for shots in counts:
        t0 = time.perf_counter()
        groups: dict = {}
        for i, (kind, _, _) in enumerate(problems):
            kind = StrategyKind(kind)
            if shots <= SHOT_CAP[kind]:
                d, mode = _layout(kind, shots, input_mode)
                groups.setdefault((d, mode, kind is StrategyKind.GLOBAL), []).append(i)
        results = [None] * len(problems)
        for (d, mode, is_global), members in groups.items():
            kinds, cells, cfgs = zip(*(problems[i] for i in members))
            objective = values_objective(kinds, family, *zip(*cells), shots, mode)
            if family is ChannelFamily.DEPOLARIZING:
                for cfg in cfgs:  # refused as maximize_batch refuses them
                    cfg.check_width(d)
                values = objective(np.arange(len(members)), np.zeros((len(members), d)))
                found = [OptResult(np.zeros(d), float(v), 1, True) for v in values]
            else:
                cfgs = [dataclasses.replace(cfg, extra_starts=tuple(
                    _to_x([*cfg.extra_starts, *warm[i]]).tolist()))
                    if len(cfg.extra_starts) or len(warm[i]) else cfg
                    for i, cfg in zip(members, cfgs)]
                # A feedforward call costs mostly per call, a global one per row.
                in_x = maximize_batch(lambda problem, x: objective(problem, _to_r(x)), d, cfgs,
                                      mirrored=not is_global and family in MIRRORED,
                                      one_call=not is_global)
                found = [dataclasses.replace(res, best_point=_to_r(res.best_point)) for res in in_x]
            for i, res in zip(members, found):
                results[i] = res
                warm[i] = [(*res.best_point, v) for v in (0.0, 0.5, 1.0)] if mode == "flat" else ()
        elapsed = time.perf_counter() - t0
        out.append([(res, elapsed) for res in results])
    return out


def optimize_strategy(
    kind,
    spec0: ChannelSpec,
    spec1: ChannelSpec,
    shots: int,
    input_mode: str = "flat",
    opt_cfg: OptimizerConfig = OptimizerConfig(),
):
    """Best inputs for one strategy at a fixed shot count, one
    :func:`_optimize` call; a count past its ``SHOT_CAP`` is refused.

    Returns ``(p_succ, r_values, evaluations)``; in adaptive mode
    ``r_values`` holds the levels of the schedule concatenated, or one value
    per shot past ``ADAPTIVE_PARAM_CAP`` parameters. The
    depolarizing family is input independent, so it is evaluated once at
    the all-|0> schedule of its layout instead of being optimized.
    """
    _check_family(spec0, spec1)
    _check_shots(StrategyKind(kind), _whole(shots, "shots", 1))
    [[(res, _)]] = _optimize([(kind, (spec0.eta, spec1.eta), opt_cfg)], spec0.family, (shots,),
                             input_mode)
    return res.best_value, tuple(float(v) for v in res.best_point), res.evaluations


def _search_task(payload) -> list[list[tuple]]:
    """:func:`_optimize` of ``(kind, (eta0, eta1), seed)`` problems, on ``cfg``'s settings."""
    cfg, problems, counts = payload
    problems = [(kind, point, OptimizerConfig(
        value_tol=cfg.value_tol, max_evals=cfg.max_evals, seed=seed, max_starts=cfg.max_starts))
        for kind, point, seed in problems]
    return _optimize(problems, cfg.family, counts, cfg.input_mode)


def _search(cfg: ExperimentConfig, problems: list, counts) -> list[list]:
    """For each shot count, one ``(result, wall time)`` per problem, as
    :func:`_optimize` gives them for all ``problems``.

    ``jobs`` splits the problems into that many contiguous runs, one task
    each, the earlier runs no longer than the later: a one-point curve at
    ``jobs=2`` runs its first strategy alone. A row's wall time is that of
    all its count's searches in its run. Warns once if any search did not
    converge.
    """
    runs = max(1, min(cfg.jobs, len(problems)))
    bounds = [len(problems) * w // runs for w in range(runs + 1)]
    payloads = [(cfg, problems[a:b], counts) for a, b in zip(bounds, bounds[1:])]
    parts = _map_tasks(_search_task, payloads, cfg.jobs)
    found = [[pair for part in parts for pair in part[c]] for c in range(len(counts))]
    done = [res for results in found for res, _ in results if res is not None]
    missed = sum(not res.converged for res in done)
    if missed:
        print(f"warning: {missed} of {len(done)} optimizations did not converge", file=sys.stderr)
    return found


def run_curve(cfg: ExperimentConfig) -> list[ResultRow]:
    """Optimized success probability for every (point, n, strategy).

    Every (point, strategy) problem at one shot count runs in one lockstep
    search (one per run of problems with ``jobs`` > 1), each problem with
    the seed of its point, and gets the same result as a search of its own.
    A strategy gets no row past its ``SHOT_CAP``, and one warning per n
    skipped; one warning per strategy and n whose adaptive inputs are tied
    per shot.
    """
    if not cfg.points:
        raise ConfigError("curve requires at least one (eta0, eta1) point")
    counts = range(1, cfg.n_max + 1)
    modes = {}  # the schedule mode of each (strategy, n) search
    for kind in cfg.strategies:
        cap = SHOT_CAP[StrategyKind(kind)]
        for shots in counts:
            mode = modes[kind, shots] = _layout(StrategyKind(kind), shots, cfg.input_mode)[1]
            if shots > cap:
                print(f"warning: {kind} strategy skipped for n={shots} (cap {cap})",
                      file=sys.stderr)
            elif mode != cfg.input_mode and kind != StrategyKind.GLOBAL:
                print(f"warning: {kind} inputs tied per shot for n={shots}: an adaptive "
                      f"schedule has {sum(level_widths(kind, cfg.input_mode, shots))} "
                      f"parameters (cap {ADAPTIVE_PARAM_CAP})", file=sys.stderr)
    problems = [
        (kind, point, cfg.seed + 7919 * i)
        for i, point in enumerate(cfg.points)
        for kind in cfg.strategies
    ]
    found = _search(cfg, problems, counts)
    return [
        ResultRow(
            family=cfg.family.value,
            eta0=e0,
            eta1=e1,
            n=shots,
            strategy=kind,
            input_mode=modes[kind, shots],
            p_succ=res.best_value,
            r_values=tuple(float(v) for v in res.best_point),
            evaluations=res.evaluations,
            wall_time_s=wall,
        )
        for i, (e0, e1) in enumerate(cfg.points)
        for shots, results in zip(counts, found)
        for kind, (res, wall) in zip(cfg.strategies, results[i * len(cfg.strategies) :])
        if res is not None
    ]


def run_sweep_diff(cfg: ExperimentConfig) -> list[SweepRow]:
    """Bayesian minus Markovian success at three shots over an eta grid.

    Cells are restricted to the lower triangle eta0 > eta1; both sides are
    input-optimized independently, each cell with its own seed. ``jobs``
    splits the problems into that many contiguous runs. The searches of a
    run share one lockstep over the cells of both strategies (two in
    adaptive mode, where the strategies differ in parameter count), and
    give each cell the same result as a search of its own. ``diff`` is the
    difference of the values as they print, to their 15 decimals.
    """
    if cfg.grid is None:
        raise ConfigError("sweep-diff requires a grid (--grid MIN:MAX:STEPS or the grid key)")
    gmin, gmax, steps = cfg.grid
    axis = np.linspace(gmin, gmax, steps)
    cells = [(float(e0), float(e1)) for e0 in axis for e1 in axis if e0 > e1]
    problems = [
        (kind, cell, cfg.seed + 104729 * i)
        for i, cell in enumerate(cells)
        for kind in _FEEDFORWARD
    ]
    (found,) = _search(cfg, problems, (SWEEP_SHOTS,))
    return [
        SweepRow(e0, e1, b.best_value, m.best_value,
                 round(_sig15(b.best_value) - _sig15(m.best_value), 15))
        for (e0, e1), (b, _), (m, _) in zip(cells, found[::2], found[1::2])
    ]


# Thread counts of the BLAS libraries numpy may load, set to 1 in workers.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_tasks(fn, payloads, jobs: int):
    """``[fn(p) for p in payloads]``, over ``jobs`` worker processes.

    Workers are spawned, not forked, with one BLAS thread each in their
    environment, so that ``jobs`` workers run ``jobs`` threads: a stacked
    eigensolve on several BLAS threads per worker would make the workers
    compete for the same cores. As with any spawned pool, a script that
    runs with ``jobs`` > 1 must guard its entry point with
    ``if __name__ == "__main__":``.
    """
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # Imported here: the pool machinery costs about 2 MiB of memory, which a
    # run with one job never uses.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            return list(pool.map(fn, payloads))
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


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
        axis = np.linspace(0.0, ETA_MAX[family], 12)
        cells = [(float(e0), float(e1)) for e0 in axis for e1 in axis if e0 > e1]
        (found,) = _optimize([("markovian", cell, OptimizerConfig(seed=seed)) for cell in cells],
                             family, (1,), "flat")
        worst = max(abs(res.best_value - closed_form_one_shot(family, *cell))
                    for cell, (res, _) in zip(cells, found))
        checks.append(CheckResult(f"oneshot/{family.value}", worst, 1e-6))
    return checks


# Schedules on the edge of the box where the one-shot rule meets an exact
# tie, each with the schedule moved 1e-9 inside: (family, eta0, eta1, edge,
# inside). At the first, lam0 = 0 and measuring ties with always guessing 1;
# at the second, lam1 = 0 and measuring ties with always guessing 0.
_EDGE_TIES = (
    (ChannelFamily.BIT_FLIP, 0.793, 0.207, (1.0, 1.0, 0.0), (1 - 1e-9, 1 - 1e-9, 1e-9)),
    (ChannelFamily.BIT_FLIP, 6 / 7, 1 / 7, (0.0, 0.9, 0.0), (1e-9, 0.9, 1e-9)),
)


def _suite_reductions(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_one = worst_two = 0.0
    for i in range(20):
        pair = _random_spec_pair(rng, list(ChannelFamily)[i % 3])
        r1 = InputSchedule.flat([rng.random()])
        ref = strategy_value("markovian", *pair, r1)
        for kind in VALID_STRATEGIES:
            worst_one = max(worst_one, abs(strategy_value(kind, *pair, r1) - ref))
        r2 = InputSchedule.flat(rng.random(2))
        gap = strategy_value("bayesian", *pair, r2) - strategy_value("markovian", *pair, r2)
        worst_two = max(worst_two, abs(gap))
    # Bayesian <= global on shared schedules, with box-edge entries mixed in.
    worst_order = 0.0
    for i in range(30):
        pair = _random_spec_pair(rng, list(ChannelFamily)[i % 3])
        r = rng.random(2 + i % 3)
        r[rng.random(r.size) < 0.3] = rng.choice([0.0, 1.0])
        sched = InputSchedule.flat(r)
        gap = strategy_value("bayesian", *pair, sched) - strategy_value("global", *pair, sched)
        worst_order = max(worst_order, gap)
    worst_edge = 0.0
    for family, eta0, eta1, edge, inside in _EDGE_TIES:
        pair = ChannelSpec(family, eta0), ChannelSpec(family, eta1)
        for kind in _FEEDFORWARD:
            gap = strategy_value(kind, *pair, InputSchedule.flat(edge))
            gap -= strategy_value(kind, *pair, InputSchedule.flat(inside))
            worst_edge = max(worst_edge, abs(gap))
    # Pure outputs X|psi> and |psi>: local feedforward attains the global value.
    pair = ChannelSpec(ChannelFamily.BIT_FLIP, 1.0), ChannelSpec(ChannelFamily.BIT_FLIP, 0.0)
    worst_pure = 0.0
    for i in range(20):
        sched = InputSchedule.flat(rng.random(1 + i % 6))
        ref = strategy_value("global", *pair, sched)
        for kind in _FEEDFORWARD:
            worst_pure = max(worst_pure, abs(strategy_value(kind, *pair, sched) - ref))
    # Bayesian >= Markovian at 3 shots, on flat schedules and on adaptive
    # Markovian ones relabelled as Bayesian (see the strategies docstring).
    worst_three = 0.0
    for i in range(30):
        pair = _random_spec_pair(rng, list(ChannelFamily)[i % 3])
        r = np.where(rng.random(5) < 0.3, rng.integers(0, 2, 5), rng.random(5))
        for markov, bayes in (
            (InputSchedule.flat(r[:3]),) * 2,
            (InputSchedule.adaptive([r[:1], r[1:3], r[3:]]),
             InputSchedule.adaptive([r[:1], r[1:3], np.tile(r[3:], 2)])),
        ):
            gap = strategy_value("markovian", *pair, markov)
            worst_three = max(worst_three, gap - strategy_value("bayesian", *pair, bayes))
    # The bit-flip mirror of the channels module: any shot's or node's
    # r -> 1 - r keeps every value.
    worst_mirror = 0.0
    for i in range(20):
        pair = _random_spec_pair(rng, ChannelFamily.BIT_FLIP)
        for kind, mode in (("global", "flat"), *((k, m) for k in _FEEDFORWARD for m in ScheduleMode)):
            widths = level_widths(kind, mode, 1 + i % 4)
            r = rng.random(sum(widths))
            values = []
            for row in (r, np.where(rng.random(r.size) < 0.5, 1.0 - r, r)):
                sched = (InputSchedule.flat(row) if mode == "flat" else
                         InputSchedule.adaptive(np.split(row, np.cumsum(widths)[:-1])))
                values.append(strategy_value(kind, *pair, sched))
            worst_mirror = max(worst_mirror, abs(values[0] - values[1]))
    return [
        CheckResult("reductions/one-shot", worst_one, 1e-12),
        CheckResult("reductions/two-shot-bayes-markov", worst_two, 1e-12),
        CheckResult("reductions/bayesian-below-global", worst_order, 1e-12),
        CheckResult("reductions/box-edge-ties", worst_edge, 1e-6),
        CheckResult("reductions/pure-outputs", worst_pure, 1e-12),
        CheckResult("reductions/three-shot-bayesian-above-markovian", worst_three, 1e-12),
        CheckResult("reductions/bit-flip-mirror", worst_mirror, 1e-12),
    ]


def _suite_monte_carlo(seed: int) -> list[CheckResult]:
    """Nine sampled frequencies against their exact values, each within 4.5
    sigma at 10^6 trials; the simulator's cost does not grow with trials."""
    # Each check misses by chance with probability 6.8e-6, so a correct
    # program fails the suite in at most 9 x 6.8e-6 = 6.1e-5 of runs.
    trials, sigmas = 10**6, 4.5
    checks = []
    sched = InputSchedule.flat([0.3, 0.7, 0.5])
    for family in ChannelFamily:
        spec0 = ChannelSpec(family, 0.75 * ETA_MAX[family])
        spec1 = ChannelSpec(family, 0.4 * ETA_MAX[family])
        for kind in VALID_STRATEGIES:
            p = strategy_value(kind, spec0, spec1, sched)
            freq = simulate_protocol(kind, spec0, spec1, sched, trials, seed)
            sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / trials)
            checks.append(
                CheckResult(f"monte-carlo/{family.value}/{kind}", abs(freq - p), sigmas * sigma)
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


_SUITES = {
    "oneshot-closed-forms": _suite_oneshot,
    "strategy-reductions": _suite_reductions,
    "monte-carlo": _suite_monte_carlo,
    "povm-properties": _suite_povm,
}
VALID_SUITES = tuple(_SUITES)


def run_validate(suite: str, seed: int = 0) -> list[CheckResult]:
    """Run one named self-check suite and return its checks."""
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {VALID_SUITES}")
    return _SUITES[suite](_number(int, seed, "seed", 0, c_long=False))


# ---------------------------------------------------------------------------
# serialization


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


def _cell(value) -> str:
    """A CSV cell: floats to 15 significant digits, a tuple's joined by ';'.
    A decimal of 15 digits survives binary64, so these are the digits
    :func:`_row_record` keeps for JSON."""
    if isinstance(value, tuple):
        return ";".join(f"{v:.15g}" for v in value)
    return f"{value:.15g}" if isinstance(value, float) else str(value)


def write_records_csv(rows, cfg_dict: dict, fh) -> None:
    """CSV with '#' comment lines carrying the tool version and config, then
    a header of the rows' fields, unless there are no rows, and one line per
    row."""
    fh.write(f"# {TOOL}\n# config: {json.dumps(cfg_dict, sort_keys=True)}\n")
    if rows:
        fields = [f.name for f in dataclasses.fields(rows[0])]
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(_cell(getattr(row, key)) for key in fields) + "\n")


def write_records_json(rows, cfg_dict: dict, fh) -> None:
    payload = {
        "tool": TOOL,
        "config": cfg_dict,
        "rows": [_row_record(row) for row in rows],
    }
    json.dump(payload, fh, indent=1, sort_keys=True)
    fh.write("\n")


# How a cell is read, by the type its row class declares; a column that no
# row class declares reads as a float.
_CELL_PARSERS = {
    str: str,
    int: int,
    tuple: lambda cell: [float(v) for v in cell.split(";")] if cell else [],
}
_FIELD_TYPES = {**typing.get_type_hints(ResultRow), **typing.get_type_hints(SweepRow)}


def _check_p_succ(rec: dict, where: str) -> None:
    """Every success probability, a column named ``p_*``, is a number in [0.5, 1]."""
    for key, value in rec.items():
        number = type(value) in (int, float)
        if key.startswith("p_") and not (number and 0.5 - 1e-9 <= value <= 1.0 + 1e-9):
            raise ValueError(f"{where}, column {key}: {value!r} is not a number in [0.5, 1]")


def read_records_csv(fh) -> list[dict]:
    fields = None
    records = []
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if fields is None:
            fields = line.split(",")
            parsers = [_CELL_PARSERS.get(_FIELD_TYPES.get(key), float) for key in fields]
            continue
        cells = line.split(",")
        if len(cells) != len(fields):
            raise ValueError(
                f"line {lineno} has {len(cells)} cells, the header {len(fields)}"
            )
        rec = {}
        for key, parse, cell in zip(fields, parsers, cells):
            try:
                rec[key] = parse(cell)
            except ValueError:
                raise ValueError(f"line {lineno}, column {key}: cannot read {cell!r}") from None
        _check_p_succ(rec, f"line {lineno}")
        records.append(rec)
    return records


def read_records_json(fh) -> list[dict]:
    records = json.load(fh)["rows"]
    for i, rec in enumerate(records):
        _check_p_succ(rec, f"row {i}")
    return records
