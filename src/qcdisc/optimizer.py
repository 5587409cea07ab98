"""Multistart Nelder-Mead maximization over the unit box [0, 1]^d.

The objectives here are smooth, cheap, low-dimensional and often maximized
on the boundary of the unit box, so the start set is the {0, 1/2, 1}
corner/center lattice (replaced by a seeded Latin hypercube once the
lattice outgrows the start cap), or its quotient {0, 1/2}^d for an
objective that is unchanged when any coordinate x goes to 1 - x.
Candidate points are clamped into the box. All starts of all problems run
in lockstep on stacked arrays, so a batched objective sees one call per
Nelder-Mead step kind for all of them, or, on a short batch of an
objective whose calls cost mostly per call, one call per step.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["OptResult", "OptimizerConfig", "maximize", "maximize_batch"]

# Reflection / expansion / contraction / shrink coefficients.
_ALPHA, _GAMMA, _BETA, _DELTA = 1.0, 2.0, 0.5, 0.5
# Edge length of each start's initial simplex.
_INITIAL_STEP = 0.25
# Rows up to which a one-call step evaluates every live start's reflection,
# expansion and contraction points at once; a step adds at most two rows
# per start and saves one call. A three-shot feedforward objective call
# costs about 90 us plus 0.25 us a row up to 600 rows (flat; 0.5 us on the
# 7-node Bayesian tree), and 0.6 us a row beyond (one BLAS thread, Xeon).
# On the three 8-step sweeps, 300 and 600 ran alike, 1 200 and 2 400 slower.
_ONE_CALL_ROWS = 600


def _whole(value, name: str, low: int, c_long: bool = True) -> int:
    """``value`` as an int, or a ``ValueError`` naming ``name``: the package's
    one rule for counts, dimensions and seeds. No bool, nothing below ``low``
    and nothing from 2**63 on, as numpy counts and draws in a C long; a seed
    (``c_long=False``) may be of any size."""
    try:
        number = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if number < low:
        raise ValueError(f"{name} must be >= {low}, got {number}")
    if c_long and number >= 2**63:
        raise ValueError(f"{name} must be < 2**63, got {number}")
    return number


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multistart search.

    ``value_tol`` stops a start once the simplex value spread falls below
    it; ``max_evals`` is the per-start evaluation budget. ``extra_starts``
    are additional seed points (e.g. warm starts from a related problem),
    an (m, d) array of points of the unit box appended to the generated ones.
    A setting out of its limits raises a ``ValueError`` naming it: integers
    ``max_evals`` >= 1 and ``max_starts`` >= 3 (the three diagonal starts),
    both < 2**63, and ``seed`` >= 0, of any size; ``value_tol`` positive and
    finite, as no simplex's value spread falls below 0.
    """

    value_tol: float = 1e-9
    max_evals: int = 20000
    seed: int = 0
    max_starts: int = 64
    extra_starts: tuple = ()

    def __post_init__(self):
        _whole(self.max_evals, "max_evals", 1)
        _whole(self.max_starts, "max_starts", 3)
        _whole(self.seed, "seed", 0, c_long=False)
        if not 0.0 < self.value_tol < math.inf:
            raise ValueError(f"value_tol must be positive and finite, got {self.value_tol!r}")
        try:
            got = np.shape(self.extra_starts)
        except ValueError:  # ragged rows, of which numpy names no shape
            got = f"rows of shapes {tuple(np.shape(start) for start in self.extra_starts)}"
        if len(self.extra_starts) and not (isinstance(got, tuple) and len(got) == 2):
            raise ValueError(f"extra_starts must be an (m, d) array, got {got}")
        for start in self.extra_starts:  # NaN fails both comparisons
            if not all(0.0 <= v <= 1.0 for v in start):
                raise ValueError(f"extra_starts must be finite points of [0, 1]^d, got {start!r}")

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


@functools.lru_cache(maxsize=None)
def _lattice(d: int, mirrored: bool) -> np.ndarray:
    """The {0, 1/2, 1}^d lattice, or its quotient {0, 1/2}^d by the mirror
    x -> 1 - x of each coordinate, read-only: one array per (d, mirrored)
    is shared. The quotient keeps its points in the lattice's order."""
    axes = np.array([0.0, 0.5] if mirrored else [0.0, 0.5, 1.0])
    pts = np.stack([g.ravel() for g in np.meshgrid(*([axes] * d), indexing="ij")], axis=1)
    pts.flags.writeable = False
    return pts


def _starts(d: int, cfg: OptimizerConfig, mirrored: bool = False) -> np.ndarray:
    if 3**d <= cfg.max_starts:
        pts = _lattice(d, mirrored)
    else:
        # Keep the all-corner and center points, fill the rest at random.
        fixed = np.array([[0.0] * d, [0.5] * d, [1.0] * d])
        rng = np.random.default_rng(cfg.seed)
        pts = np.vstack([fixed, _latin_hypercube(rng, cfg.max_starts - 3, d)])
    cfg.check_width(d)
    if len(cfg.extra_starts):
        pts = np.vstack([pts, np.asarray(cfg.extra_starts, dtype=float)])
    return pts


def maximize_batch(objective, d: int, cfgs, *, mirrored: bool = False,
                   one_call: bool = False) -> list[OptResult]:
    """Best point of each of several problems over the unit box [0, 1]^d.

    ``objective(problem, x)`` takes an index array ``problem`` of shape
    ``(rows,)`` and points ``x`` of shape ``(rows, d)`` and returns the
    ``rows`` values, row ``i`` being problem ``problem[i]``'s objective at
    ``x[i]``. Problem ``j`` uses ``cfgs[j]``. Every start of every problem
    runs its own Nelder-Mead search (points clamped into the box), and all
    of them advance in phase, one objective call per step kind: the
    reflections, then the expansions and contractions, then the shrinks.
    Both call plans take their trial points from one array that stacks
    every live start's reflection, expansion and contraction points. With
    ``one_call``, a step of at most ``_ONE_CALL_ROWS`` points evaluates the
    whole array in one call instead, and keeps and counts only the points
    that the step-kind search evaluates: the choice for an objective whose
    calls cost mostly per call, not per row. ``mirrored`` says that every
    objective is unchanged when any coordinate x goes to 1 - x, so a
    lattice of starts is taken modulo that mirror, as {0, 1/2}^d.
    A start follows the same trajectory as it would alone, as long as the
    objective's value for a row does not depend on the other rows.
    Returns one :class:`OptResult` per problem; ``converged`` is True only
    if every start of that problem met its value tolerance within its
    evaluation budget; ``d`` must be an integer from 1 to 2**63 - 1.
    """
    d = _whole(d, "d", 1)
    if not len(cfgs):
        return []
    # One row per start, stacked problem by problem: problem j's are rows bounds[j]:bounds[j + 1].
    starts = [_starts(d, cfg, mirrored) for cfg in cfgs]
    sizes = [len(pts) for pts in starts]
    bounds = np.cumsum([0, *sizes])
    problem = np.repeat(np.arange(len(cfgs)), sizes)
    x0 = np.vstack(starts)
    rows = len(problem)
    tol = np.repeat([cfg.value_tol for cfg in cfgs], sizes)
    budget = np.repeat([cfg.max_evals for cfg in cfgs], sizes)

    def g(live, x):
        return -np.asarray(objective(problem.take(live), x), dtype=float)

    # Simplex of each start in rows; vertex 0 is the start point, which
    # _starts keeps in the box, vertex i + 1 moves coordinate i by the step,
    # inward at the upper bound.
    simplex = np.repeat(x0[:, None, :], d + 1, axis=1)
    for i in range(d):
        up = x0[:, i] + _INITIAL_STEP
        simplex[:, i + 1, i] = np.where(up <= 1.0, up, x0[:, i] - _INITIAL_STEP)
    live = np.arange(rows)
    # One call per vertex rather than one for all keeps the objective's working
    # memory down: d + 1 points per start in one call would grow with the batch.
    values = np.stack([g(live, simplex[:, i]) for i in range(d + 1)], axis=1)
    evals = np.full(rows, d + 1)

    out_x = np.empty((rows, d))
    out_g = np.empty(rows)
    out_evals = np.empty(rows, dtype=int)
    out_conv = np.zeros(rows, dtype=bool)

    while live.size:
        # Each simplex sorted by value. Rows move by flat (row, vertex)
        # indices and live rows by takes, which cost less than fancy indexing.
        order = np.argsort(values, axis=1, kind="stable") + (d + 1) * np.arange(len(live))[:, None]
        values = values.take(order)
        simplex = simplex.reshape(-1, d).take(order.ravel(), axis=0).reshape(len(live), d + 1, d)
        # A start ends when it meets its tolerance (converged) or spends its
        # budget; it records the first of its best vertices, which the stable
        # sort keeps first, and leaves the live state.
        spent = evals >= budget
        met = values[:, -1] - values[:, 0] < tol
        done = met | spent
        if done.any():
            gone = np.flatnonzero(done)
            rid = live.take(gone)
            best = gone * (d + 1) + np.argmin(values.take(gone, axis=0), axis=1)
            out_x[rid] = simplex.reshape(-1, d).take(best, axis=0)
            out_g[rid] = values.take(best)
            out_evals[rid] = evals.take(gone)
            out_conv[rid] = (met & ~spent).take(gone)
            keep = np.flatnonzero(~done)
            live, simplex, values = live.take(keep), simplex.take(keep, axis=0), values.take(keep, axis=0)
            evals, tol, budget = evals.take(keep), tol.take(keep), budget.take(keep)
            if not live.size:
                break
        # Summed vertex by vertex: the order np.mean sums a single start's
        # simplex in, so the arithmetic matches a one-start search exactly.
        centroid = simplex[:, 0].copy()
        for i in range(1, d):
            centroid += simplex[:, i]
        centroid /= d
        worst = simplex[:, -1]
        # Every start's reflection, expansion and contraction points, stacked;
        # one call evaluates all, or the reflections and then those tried.
        n = len(live)
        points = _box(np.concatenate([centroid + _ALPHA * (centroid - worst),
                                      centroid + _GAMMA * (centroid - worst),
                                      centroid + _BETA * (worst - centroid)]))
        reflected = points[:n]
        fused = one_call and 3 * n <= _ONE_CALL_ROWS
        f_all = g(np.tile(live, 3), points) if fused else g(live, reflected)
        fr = f_all[:n]
        evals += 1
        best_f, second_f, worst_f = values[:, 0], values[:, -2], values[:, -1]
        accept = (best_f <= fr) & (fr < second_f)
        expand = fr < best_f
        # The others try their expansion or their contraction point.
        tried = np.flatnonzero(~accept)
        e = expand.take(tried)
        pick = tried + n * (2 - e)
        trial = points.take(pick, axis=0)
        ft = f_all.take(pick) if fused or not tried.size else g(live.take(tried), trial)
        evals[tried] += 1
        kept = np.where(e, ft < fr.take(tried), ft < worst_f.take(tried))
        # Accepted and expanding starts take the reflected point, and then
        # the starts that keep their trial point take that instead.
        take_reflected = accept | expand
        np.copyto(simplex[:, -1], reflected, where=take_reflected[:, None])
        np.copyto(values[:, -1], fr, where=take_reflected)
        won = tried[kept]
        simplex[won, -1] = trial[kept]
        values[won, -1] = ft[kept]
        shrink = ~take_reflected
        shrink[won] = False
        if shrink.any():
            # Shrink towards the best vertex; a start that runs out of budget
            # part way keeps its remaining vertices, so it evaluates at least
            # one and at most d of them.
            rid = np.flatnonzero(shrink)
            count = np.minimum(np.maximum(budget.take(rid) - evals.take(rid), 1), d)
            moved = np.arange(1, d + 1)[None, :] <= count[:, None]
            r_idx, v_idx = np.nonzero(moved)
            r_idx = rid[r_idx]
            v_idx = v_idx + 1
            best = simplex[r_idx, 0]
            points = _box(best + _DELTA * (simplex[r_idx, v_idx] - best))
            simplex[r_idx, v_idx] = points
            values[r_idx, v_idx] = g(live.take(r_idx), points)
            evals[rid] += count

    results = []
    for a, b in zip(bounds, bounds[1:]):
        i = a + np.argmin(out_g[a:b])  # the first of equal bests
        results.append(OptResult(out_x[i].copy(), -float(out_g[i]), int(out_evals[a:b].sum()),
                                 bool(out_conv[a:b].all())))
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
