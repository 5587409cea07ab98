"""Box-constrained derivative-free maximization via multistart Nelder-Mead.

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

__all__ = ["BoxDomain", "OptResult", "OptimizerConfig", "maximize", "maximize_batch"]

# Reflection / expansion / contraction / shrink coefficients.
_ALPHA, _GAMMA, _BETA, _DELTA = 1.0, 2.0, 0.5, 0.5


@dataclass(frozen=True)
class BoxDomain:
    d: int
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if len(self.lower) != self.d or len(self.upper) != self.d:
            raise ValueError("bounds length does not match dimension")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("bounds must satisfy lower < upper")

    @classmethod
    def unit(cls, d: int) -> "BoxDomain":
        return cls(d, (0.0,) * d, (1.0,) * d)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multistart search.

    ``value_tol`` stops a start once the simplex value spread falls below
    it; ``max_evals`` is the per-start evaluation budget. ``extra_starts``
    are additional seed points (e.g. warm starts from a related problem)
    appended to the generated ones.
    """

    value_tol: float = 1e-9
    max_evals: int = 20000
    seed: int = 0
    max_starts: int = 64
    initial_step: float = 0.25
    extra_starts: tuple = ()


@dataclass(frozen=True)
class OptResult:
    best_point: np.ndarray
    best_value: float
    evaluations: int
    converged: bool


def _latin_hypercube(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    sample = np.empty((m, d))
    for j in range(d):
        sample[:, j] = (rng.permutation(m) + rng.random(m)) / m
    return sample


def _starts(dom: BoxDomain, cfg: OptimizerConfig) -> np.ndarray:
    lo = np.asarray(dom.lower, dtype=float)
    hi = np.asarray(dom.upper, dtype=float)
    if 3**dom.d <= cfg.max_starts:
        axes = np.array([0.0, 0.5, 1.0])
        grids = np.meshgrid(*([axes] * dom.d), indexing="ij")
        unit = np.stack([g.ravel() for g in grids], axis=1)
    else:
        # Keep the all-corner and center points, fill the rest at random.
        fixed = np.array([[0.0] * dom.d, [0.5] * dom.d, [1.0] * dom.d])
        rng = np.random.default_rng(cfg.seed)
        unit = np.vstack([fixed, _latin_hypercube(rng, cfg.max_starts - 3, dom.d)])
    pts = lo + unit * (hi - lo)
    if cfg.extra_starts:
        extra = np.clip(np.asarray(cfg.extra_starts, dtype=float), lo, hi)
        pts = np.vstack([pts, extra.reshape(-1, dom.d)])
    return pts


def maximize_batch(objective, dom: BoxDomain, cfgs) -> list[OptResult]:
    """Best point of each of several problems over the same box.

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
    d = dom.d
    lo = np.asarray(dom.lower, dtype=float)
    hi = np.asarray(dom.upper, dtype=float)
    # One row per start, stacked problem by problem.
    starts = [_starts(dom, cfg) for cfg in cfgs]
    problem = np.repeat(np.arange(len(cfgs)), [len(pts) for pts in starts])
    x0 = np.vstack(starts)
    rows = len(problem)
    tol = np.array([cfgs[j].value_tol for j in problem])
    budget = np.array([cfgs[j].max_evals for j in problem])
    step = np.array([cfgs[j].initial_step for j in problem])[:, None] * (hi - lo)

    def g(live, x):
        return -np.asarray(objective(problem[live], x), dtype=float)

    # Simplex of each start in rows; vertex 0 is the clamped start point,
    # vertex i + 1 moves coordinate i by the step, inward at the upper bound.
    first = np.clip(x0, lo, hi)
    simplex = np.repeat(first[:, None, :], d + 1, axis=1)
    for i in range(d):
        up = first[:, i] + step[:, i]
        simplex[:, i + 1, i] = np.where(up <= hi[i], up, first[:, i] - step[:, i])
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

    def retire(done, converged):
        """Record the finished rows and drop them from the live state."""
        nonlocal live, simplex, values, evals, tol, budget
        rid = live[done]
        i_best = np.argmin(values[done], axis=1)
        out_x[rid] = simplex[done, i_best]
        out_g[rid] = values[done, i_best]
        out_evals[rid] = evals[done]
        out_conv[rid] = converged
        keep = ~done
        live, simplex, values = live[keep], simplex[keep], values[keep]
        evals, tol, budget = evals[keep], tol[keep], budget[keep]

    while live.size:
        spent = evals >= budget
        if spent.any():
            retire(spent, False)
            if not live.size:
                break
        order = np.argsort(values, axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1)
        simplex = np.take_along_axis(simplex, order[:, :, None], axis=1)
        met = values[:, -1] - values[:, 0] < tol
        if met.any():
            retire(met, True)
            if not live.size:
                break
        # Summed vertex by vertex: the order np.mean sums a single start's
        # simplex in, so the arithmetic matches a one-start search exactly.
        centroid = simplex[:, 0].copy()
        for i in range(1, d):
            centroid += simplex[:, i]
        centroid /= d
        worst = simplex[:, -1]
        reflected = np.clip(centroid + _ALPHA * (centroid - worst), lo, hi)
        fr = g(live, reflected)
        evals += 1
        best_f, second_f, worst_f = values[:, 0], values[:, -2], values[:, -1]
        accept = (best_f <= fr) & (fr < second_f)
        expand = fr < best_f
        contract = ~(accept | expand)
        trial = np.clip(
            np.where(
                expand[:, None],
                centroid + _GAMMA * (centroid - worst),
                centroid + _BETA * (worst - centroid),
            ),
            lo,
            hi,
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
            points = np.clip(best + _DELTA * (simplex[r_idx, v_idx] - best), lo, hi)
            simplex[r_idx, v_idx] = points
            values[r_idx, v_idx] = g(live[r_idx], points)
            evals[rid] += count

    results = []
    for j in range(len(cfgs)):
        mine = np.flatnonzero(problem == j)
        best_x = None
        best_g = math.inf
        for i in mine:
            if out_g[i] < best_g:
                best_x, best_g = out_x[i].copy(), float(out_g[i])
        results.append(
            OptResult(best_x, -best_g, int(out_evals[mine].sum()), bool(out_conv[mine].all()))
        )
    return results


def maximize(objective, dom: BoxDomain, cfg: OptimizerConfig = OptimizerConfig()) -> OptResult:
    """Best point of a scalar ``objective(x)`` over the box, multistart
    Nelder-Mead; :func:`maximize_batch` with one problem.

    Deterministic for a fixed config. ``converged`` is True only if every
    start met the value tolerance within its budget.
    """

    def batch(_, x):
        return [objective(row) for row in x]

    return maximize_batch(batch, dom, [cfg])[0]
