"""Multistart Nelder-Mead maximization over the unit box [0, 1]^d.

The objectives here are smooth, cheap, low-dimensional and often maximized
on the boundary of the unit box, so the start set is the {0, 1/2, 1}
corner/center lattice (replaced by a seeded Latin hypercube once the
lattice outgrows the start cap). Candidate points are clamped into the box.
All starts of all problems run in lockstep on stacked arrays, so a batched
objective sees one call per Nelder-Mead step for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OptResult", "OptimizerConfig", "maximize", "maximize_batch"]

# Reflection / expansion / contraction / shrink coefficients.
_ALPHA, _GAMMA, _BETA, _DELTA = 1.0, 2.0, 0.5, 0.5
# Edge length of each start's initial simplex.
_INITIAL_STEP = 0.25


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multistart search.

    ``value_tol`` stops a start once the simplex value spread falls below
    it; ``max_evals`` is the per-start evaluation budget. ``extra_starts``
    are additional seed points (e.g. warm starts from a related problem),
    an (m, d) array appended to the generated ones.
    """

    value_tol: float = 1e-9
    max_evals: int = 20000
    seed: int = 0
    max_starts: int = 64
    extra_starts: tuple = ()

    def __post_init__(self):
        # A spread never falls below 0, so no start meets a value_tol of 0 or
        # less; every search starts from (0, ...), (1/2, ...) and (1, ...);
        # numpy seeds no generator from a negative seed.
        for name, ok, limit in (
            ("value_tol", 0.0 < self.value_tol < math.inf, "positive and finite"),
            ("max_evals", self.max_evals >= 1, ">= 1"),
            ("max_starts", self.max_starts >= 3, ">= 3"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {limit}, got {getattr(self, name)!r}")
        try:
            got = np.shape(self.extra_starts)
        except ValueError:  # ragged rows, of which numpy names no shape
            got = f"rows of shapes {tuple(np.shape(start) for start in self.extra_starts)}"
        if len(self.extra_starts) and not (isinstance(got, tuple) and len(got) == 2):
            raise ValueError(f"extra_starts must be an (m, d) array, got {got}")

    def check_width(self, d: int) -> None:
        """Refuse warm starts of another width than the ``d`` of the search."""
        shape = np.shape(self.extra_starts)
        if len(self.extra_starts) and shape[1] != d:
            raise ValueError(f"extra_starts must have shape (m, {d}), got {shape}")


@dataclass(frozen=True)
class OptResult:
    best_point: np.ndarray
    best_value: float
    evaluations: int
    converged: bool


def _box(x):
    """``x`` clamped into [0, 1]; the same values as ``np.clip``, faster."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _latin_hypercube(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    sample = np.empty((m, d))
    for j in range(d):
        sample[:, j] = (rng.permutation(m) + rng.random(m)) / m
    return sample


def _starts(d: int, cfg: OptimizerConfig) -> np.ndarray:
    if 3**d <= cfg.max_starts:
        axes = np.array([0.0, 0.5, 1.0])
        grids = np.meshgrid(*([axes] * d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
    else:
        # Keep the all-corner and center points, fill the rest at random.
        fixed = np.array([[0.0] * d, [0.5] * d, [1.0] * d])
        rng = np.random.default_rng(cfg.seed)
        pts = np.vstack([fixed, _latin_hypercube(rng, cfg.max_starts - 3, d)])
    cfg.check_width(d)
    if len(cfg.extra_starts):
        pts = np.vstack([pts, _box(np.asarray(cfg.extra_starts, dtype=float))])
    return pts


def maximize_batch(objective, d: int, cfgs) -> list[OptResult]:
    """Best point of each of several problems over the unit box [0, 1]^d.

    ``objective(problem, x)`` takes an index array ``problem`` of shape
    ``(rows,)`` and points ``x`` of shape ``(rows, d)`` and returns the
    ``rows`` values, row ``i`` being problem ``problem[i]``'s objective at
    ``x[i]``. Problem ``j`` uses ``cfgs[j]``. Every start of every problem
    runs its own Nelder-Mead search (points clamped into the box), and all
    of them advance in phase, one objective call per step kind: the
    reflections, then the expansions and contractions, then the shrinks.
    A start follows the same trajectory as it would alone, as long as the
    objective's value for a row does not depend on the other rows.
    Returns one :class:`OptResult` per problem; ``converged`` is True only
    if every start of that problem met its value tolerance within its
    evaluation budget.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    # One row per start, stacked problem by problem.
    starts = [_starts(d, cfg) for cfg in cfgs]
    problem = np.repeat(np.arange(len(cfgs)), [len(pts) for pts in starts])
    x0 = np.vstack(starts)
    rows = len(problem)
    tol = np.array([cfgs[j].value_tol for j in problem])
    budget = np.array([cfgs[j].max_evals for j in problem])

    def g(live, x):
        return -np.asarray(objective(problem[live], x), dtype=float)

    # Simplex of each start in rows; vertex 0 is the start point, which
    # _starts keeps in the box, vertex i + 1 moves coordinate i by the step,
    # inward at the upper bound.
    simplex = np.repeat(x0[:, None, :], d + 1, axis=1)
    for i in range(d):
        up = x0[:, i] + _INITIAL_STEP
        simplex[:, i + 1, i] = np.where(up <= 1.0, up, x0[:, i] - _INITIAL_STEP)
    live = np.arange(rows)
    # One call per vertex rather than one for all keeps a call at one point
    # per start, as in the reflection step, and so the objective's working
    # memory down.
    values = np.stack([g(live, simplex[:, i]) for i in range(d + 1)], axis=1)
    evals = np.full(rows, d + 1)

    out_x = np.empty((rows, d))
    out_g = np.empty(rows)
    out_evals = np.empty(rows, dtype=int)
    out_conv = np.zeros(rows, dtype=bool)

    while live.size:
        # Each simplex sorted by value: one index of (row, vertex) pairs.
        order = np.arange(len(live))[:, None], np.argsort(values, axis=1, kind="stable")
        values = values[order]
        simplex = simplex[order]
        # A start ends when it meets its tolerance (converged) or spends its
        # budget; it records the first of its best vertices, which the stable
        # sort keeps first, and leaves the live state.
        spent = evals >= budget
        met = values[:, -1] - values[:, 0] < tol
        done = met | spent
        if done.any():
            rid = live[done]
            i_best = np.argmin(values[done], axis=1)
            out_x[rid] = simplex[done, i_best]
            out_g[rid] = values[done, i_best]
            out_evals[rid] = evals[done]
            out_conv[rid] = (met & ~spent)[done]
            keep = ~done
            live, simplex, values = live[keep], simplex[keep], values[keep]
            evals, tol, budget = evals[keep], tol[keep], budget[keep]
            if not live.size:
                break
        # Summed vertex by vertex: the order np.mean sums a single start's
        # simplex in, so the arithmetic matches a one-start search exactly.
        centroid = simplex[:, 0].copy()
        for i in range(1, d):
            centroid += simplex[:, i]
        centroid /= d
        worst = simplex[:, -1]
        reflected = _box(centroid + _ALPHA * (centroid - worst))
        fr = g(live, reflected)
        evals += 1
        best_f, second_f, worst_f = values[:, 0], values[:, -2], values[:, -1]
        accept = (best_f <= fr) & (fr < second_f)
        expand = fr < best_f
        contract = ~(accept | expand)
        trial = _box(
            np.where(
                expand[:, None],
                centroid + _GAMMA * (centroid - worst),
                centroid + _BETA * (worst - centroid),
            )
        )
        tried = expand | contract
        ft = np.full_like(fr, np.nan)
        if tried.any():
            ft[tried] = g(live[tried], trial[tried])
            evals += tried
        keep_trial = (expand & (ft < fr)) | (contract & (ft < worst_f))
        take_reflected = accept | (expand & ~keep_trial)
        simplex[take_reflected, -1] = reflected[take_reflected]
        values[take_reflected, -1] = fr[take_reflected]
        simplex[keep_trial, -1] = trial[keep_trial]
        values[keep_trial, -1] = ft[keep_trial]
        shrink = contract & ~keep_trial
        if shrink.any():
            # Shrink towards the best vertex; a start that runs out of budget
            # part way keeps its remaining vertices, so it evaluates at least
            # one and at most d of them.
            rid = np.flatnonzero(shrink)
            count = np.clip(budget[rid] - evals[rid], 1, d)
            moved = np.arange(1, d + 1)[None, :] <= count[:, None]
            r_idx, v_idx = np.nonzero(moved)
            r_idx = rid[r_idx]
            v_idx = v_idx + 1
            best = simplex[r_idx, 0]
            points = _box(best + _DELTA * (simplex[r_idx, v_idx] - best))
            simplex[r_idx, v_idx] = points
            values[r_idx, v_idx] = g(live[r_idx], points)
            evals[rid] += count

    results = []
    for j in range(len(cfgs)):
        mine = np.flatnonzero(problem == j)
        i = mine[np.argmin(out_g[mine])]  # the first of equal bests
        results.append(OptResult(out_x[i].copy(), -float(out_g[i]), int(out_evals[mine].sum()),
                                 bool(out_conv[mine].all())))
    return results


def maximize(objective, d: int, cfg: OptimizerConfig = OptimizerConfig()) -> OptResult:
    """Best point of a scalar ``objective(x)`` over [0, 1]^d, multistart
    Nelder-Mead; :func:`maximize_batch` with one problem.

    Deterministic for a fixed config. ``converged`` is True only if every
    start met the value tolerance within its budget.
    """

    def batch(_, x):
        return [objective(row) for row in x]

    return maximize_batch(batch, d, [cfg])[0]
