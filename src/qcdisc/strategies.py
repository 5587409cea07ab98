"""Exact multi-shot success probabilities for three discrimination strategies.

All strategies get n+1 uses of the unknown channel (equal priors on the two
hypotheses) and guess which channel it was from the measurement record.

* global: one collective measurement on all n+1 outputs jointly. The
  benchmark; built from the sign partition of the eigensystem of the
  tensor-product difference operator.
* bayesian: one measurement per shot, each chosen from the posterior over
  the full outcome history.
* markovian: one measurement per shot, chosen from weights conditioned on
  the immediately preceding outcome only; histories are marginalized, so
  evaluation is linear in the shot count.

One scalar walk over one schedule serves both feedforward strategies. It
goes level by level over the outcome tree and returns the success
probability and the nodes it reaches, each with its weights, measurement
and traces ``Tr(rho_c pi0)``. The two strategies differ only in what the
feedforward remembers: the Markovian walk merges each level's children by
last outcome, the Bayesian walk keeps every history. ``*_value`` return the
walk's success probability, ``eval_*`` the measurement tree built from its
nodes, and :func:`simulate_protocol` samples from its traces how many trials
reach each node, at a cost that does not grow with the number of trials.
:func:`values_objective` builds the function that computes the success
probability of many schedules, channel pairs and strategies at once, level
by level; the input optimizer calls it with the shot count, and it checks
that every row it scores has the width that count lays out.

:func:`level_widths` is the one description of how many input values each
shot gets, the only difference between the two feedforward schedules.

On a shared schedule, these orders are theorems: G >= B and G >= M on a
flat schedule, the collective Helstrom measurement being optimal; B = M up
to 2 shots; B >= M at 3 shots, on a flat schedule or an adaptive Markovian
one relabelled as Bayesian (level-3 node i takes the value of last outcome
i mod 2), as the last shot's merge of two histories obeys S(a) + S(b) >=
S(a + b) for the one-shot success on unnormalized weights. From 4 shots on,
B < M can occur: bit-flip (0.75, 0.4) at r = (0.9, 0.9, 1, 1) gives
B 0.688867 < M 0.726296 < G 0.759795.

The feedforward values are continuous across the exact ties of the one-shot
rule (see :mod:`helstrom`), but not where a node's lam0 changes sign off a
tie: on one side the node measures and informs later shots, on the other
it guesses. This is a jump of the greedy rule itself. For bit-flip
(0.75, 0.4) at r = (r1, 0, 1, 0), the Markovian value rises continuously to
0.733659 as r1 approaches r1* = 0.9748603..., where lam0 at the node (shot
3, last outcome 1) crosses zero, and reads 0.69553 just past it. An
optimizer that reaches r1* reports the upper side of the jump.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelFamily, ChannelSpec, _check_eta, _entries, _eta_terms, output_entries
from .helstrom import Povm, PovmCase, _build_povm, _shot_batch, success_and_traces

__all__ = [
    "InputSchedule",
    "SHOT_CAP",
    "ScheduleError",
    "StrategyEval",
    "StrategyKind",
    "bayesian_value",
    "eval_bayesian",
    "eval_global",
    "eval_markovian",
    "global_value",
    "level_widths",
    "markovian_value",
    "simulate_protocol",
    "strategy_value",
    "values_objective",
]

# Bytes of output products that one stacked global eigensolve takes at most;
# a single row of 10 shots (2 x 8 MiB) exceeds it and runs alone.
_GLOBAL_CHUNK_BYTES = 1 << 24


class StrategyKind(str, enum.Enum):
    GLOBAL = "global"
    BAYESIAN = "bayesian"
    MARKOVIAN = "markovian"


class ScheduleError(ValueError):
    """Input schedule shape does not fit the strategy or shot count."""


class ScheduleMode(str, enum.Enum):
    FLAT = "flat"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class InputSchedule:
    """Input-state parameters r for each shot.

    Flat mode carries one r per shot. Adaptive mode carries one r per
    outcome-history node: level k (0-based) holds the values for shot k+1,
    either 2^k entries (full history tree, consumed by the Bayesian
    strategy) or a single entry at level 0 and two per later level (last
    outcome only, consumed by the Markovian strategy).
    """

    mode: ScheduleMode
    levels: tuple

    def __post_init__(self):
        if not self.levels:
            raise ScheduleError("schedule needs at least one shot")
        flat = self.mode is ScheduleMode.FLAT
        _checked_rows(self.levels if flat else [r for level in self.levels for r in level])

    @classmethod
    def flat(cls, r_values) -> "InputSchedule":
        return cls(ScheduleMode.FLAT, tuple(float(r) for r in r_values))

    @classmethod
    def adaptive(cls, levels) -> "InputSchedule":
        lv = tuple(tuple(float(r) for r in level) for level in levels)
        if lv and len(lv[0]) != 1:
            raise ScheduleError("adaptive level 0 must hold exactly one value")
        return cls(ScheduleMode.ADAPTIVE, lv)

    @property
    def shots(self) -> int:
        return len(self.levels)


def _checked_rows(r_rows) -> np.ndarray:
    """``r_rows`` as a float array, or a :class:`ScheduleError` unless every r
    lies in [0, 1]."""
    r_rows = np.asarray(r_rows, dtype=float)
    ok = (r_rows >= 0.0) & (r_rows <= 1.0)
    if not ok.all():
        raise ScheduleError(f"r must be in [0, 1], got {r_rows[~ok][0]}")
    return r_rows


@dataclass(frozen=True)
class StrategyEval:
    """Success probability plus the measurement tree that produced it.

    ``povm_tree`` keys: outcome-history tuples for the Bayesian strategy
    (root is the empty tuple), ``(shot, previous_bit)`` pairs for the
    Markovian strategy (shot 1 keyed ``(1, None)``), and the single label
    ``"global"`` for the collective measurement. ``posteriors`` maps the
    same keys to the weight placed on hypothesis 0 at that node.
    """

    p_succ: float
    povm_tree: dict = field(repr=False)
    posteriors: dict = field(repr=False)


def level_widths(kind, mode, shots: int) -> list:
    """Input values per shot of a ``kind`` schedule in ``mode``: one when
    flat; when adaptive, one per node of the walk, that is per outcome
    history (Bayesian: 1, 2, 4, ...) or per last outcome (Markovian: 1, 2,
    2, ...)."""
    if ScheduleMode(mode) is ScheduleMode.FLAT:
        return [1] * shots
    kind = StrategyKind(kind)
    if kind is StrategyKind.GLOBAL:
        raise ScheduleError("global strategy takes a flat schedule")
    return [2**k if kind is StrategyKind.BAYESIAN else min(2**k, 2) for k in range(shots)]


# The most shots each strategy takes, read at call time.
SHOT_CAP = {
    StrategyKind.GLOBAL: 10,
    StrategyKind.BAYESIAN: 14,
    StrategyKind.MARKOVIAN: float("inf"),
}


def _check_shots(kind: StrategyKind, shots: int):
    if shots > SHOT_CAP[kind]:
        raise ValueError(f"{kind.value} strategy capped at {SHOT_CAP[kind]} shots, got {shots}")


def _check_family(eta0: ChannelSpec, eta1: ChannelSpec):
    if eta0.family is not eta1.family:
        raise ValueError(f"channel families differ: {eta0.family.value} vs {eta1.family.value}")


def _check(kind: StrategyKind, eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule):
    """Reject channels of two families, a schedule laid out for another
    strategy, or more shots than the cap of ``kind``."""
    _check_family(eta0, eta1)
    if sched.mode is not ScheduleMode.FLAT:
        want = level_widths(kind, sched.mode, sched.shots)
        got = [len(level) for level in sched.levels]
        if got != want:
            raise ScheduleError(f"adaptive levels hold {got} values, {kind.value} needs {want}")
    _check_shots(kind, sched.shots)


# ---------------------------------------------------------------------------
# global strategy


def _kron_stack(mats):
    """Kronecker products of stacked 2x2 factors, first factor outermost.

    ``mats`` has shape ``(..., n, 2, 2)``; returns ``(..., 2**n, 2**n)``.
    Entry ``(a, b)`` of the next factor scales the whole product so far
    into the strided block ``[..., a::2, b::2]`` of the result, in place.
    """
    out = mats[..., 0, :, :]
    for k in range(1, mats.shape[-3]):
        m = mats[..., k, :, :, None, None]
        dim = out.shape[-1]
        nxt = np.empty(out.shape[:-2] + (2 * dim, 2 * dim))
        for a in range(2):
            for b in range(2):
                np.multiply(out, m[..., a, b, :, :], out=nxt[..., a::2, b::2])
        out = nxt
    return out


def _global_products(family, terms, r_rows):
    """The output products of both channels for many flat schedules.

    ``terms`` are the eta factors of :func:`_eta_terms`, shaped (term,
    channel, row), and ``r_rows`` the schedules, (row, shot). Returns the
    products stacked (channel, row, 2**n, 2**n).
    """
    rho00, rho11, x = _entries(family, terms[..., None], r_rows, np.sqrt)
    mats = np.empty(rho00.shape + (2, 2))
    mats[..., 0, 0] = rho00
    mats[..., 1, 1] = rho11
    mats[..., 0, 1] = x
    mats[..., 1, 0] = x
    return _kron_stack(mats)


def _spec_products(eta0, eta1, sched):
    """The output products (channel, 2**n, 2**n) of one channel pair and
    schedule: :func:`_global_products` at one row, from the specs' eta
    factors."""
    _check(StrategyKind.GLOBAL, eta0, eta1, sched)
    terms = np.array((eta0._terms, eta1._terms)).T[..., None]  # (term, channel, row)
    return _global_products(eta0.family, terms, np.array([sched.levels]))[:, 0]


def _global_success(products):
    """Success of the collective measurement on stacked product pairs
    ``(r0, r1)``: 1/2 plus the positive eigenvalues of (r0 - r1)/2."""
    vals = np.linalg.eigvalsh(0.5 * (products[0] - products[1]))
    return 0.5 + np.maximum(vals, 0.0).sum(axis=-1)


def _global_measurement(eta0, eta1, sched):
    """The collective measurement and its traces Tr(rho0 pi0), Tr(rho1 pi1)."""
    r0, r1 = _spec_products(eta0, eta1, sched)
    delta = 0.5 * (r0 - r1)
    vals, vecs = np.linalg.eigh(delta)
    mask = vals >= 0.0
    dim = delta.shape[0]
    eye = np.eye(dim)
    if mask.all():
        pi0, tag = eye, PovmCase.ALWAYS_GUESS_0
    elif not mask.any():
        pi0, tag = np.zeros((dim, dim)), PovmCase.ALWAYS_GUESS_1
    else:
        kept = vecs[:, mask]
        pi0, tag = kept @ kept.T, PovmCase.PROJECTIVE
    pi1 = eye - pi0
    return Povm(pi0, pi1, tag), np.trace(r0 @ pi0), np.trace(r1 @ pi1)


def eval_global(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> StrategyEval:
    """Collective measurement on all shots jointly."""
    povm, c0, c1 = _global_measurement(eta0, eta1, sched)
    return StrategyEval(0.5 * float(c0 + c1), {"global": povm}, {"global": 0.5})


def global_value(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> float:
    """Success probability of the collective measurement, eigenvalues only."""
    return float(_global_success(_spec_products(eta0, eta1, sched)))


# ---------------------------------------------------------------------------
# feedforward strategies


def _walk(kind: StrategyKind, eta0, eta1, sched):
    """Feedforward walk of the Bayesian or Markovian strategy.

    Goes over the outcome tree level by level. Node ``i`` of level ``k``
    measures shot k+1; it keeps its weights under channels 0 and 1, takes
    the optimal one-shot measurement at those weights, and passes them,
    times the traces of each outcome, to its children 2i (outcome 0) and
    2i + 1 (outcome 1). Bayesian node ``(k, i)`` is the history of k
    outcomes that spells i in binary, first outcome highest. The Markovian
    strategy merges each level's children by outcome into two nodes, so
    that its node ``(k, i)`` follows last outcome i (the first shot's is
    0). By convention a node of weight exactly (0, 0), which neither
    channel can reach, is skipped, and its children get zero weight; the
    weights are never negative, as the traces are clamped into [0, 1]. The
    final outcome is the guess: a node of the last level has no children,
    and adds its success weight.

    Returns ``(p_succ, nodes)``, where ``nodes`` lists ``(k, i, l0, l1,
    case, n, t0, t1)`` for each node reached, level by level, with
    ``(l0, l1)`` its weights and ``n`` the Bloch vector of its projector as
    :func:`success_and_traces` returns it.
    """
    _check(kind, eta0, eta1, sched)
    merge = kind is StrategyKind.MARKOVIAN
    flat = sched.mode is ScheduleMode.FLAT
    nodes = []
    w = [(1.0, 1.0)]
    total = 0.0
    last = sched.shots - 1
    for k, level in enumerate(sched.levels):
        if flat:
            s0, s1 = output_entries(eta0, level), output_entries(eta1, level)
        nxt = []
        for i, (l0, l1) in enumerate(w):
            if l0 == l1 == 0.0:  # a node neither channel can reach
                nxt += ((0.0, 0.0), (0.0, 0.0))
                continue
            if not flat:
                s0, s1 = output_entries(eta0, level[i]), output_entries(eta1, level[i])
            case, p, t0, t1, _, _, n = success_and_traces(l0, l1, s0, s1)
            nodes.append((k, i, l0, l1, case, n, t0, t1))
            if k == last:
                total += p
                continue
            nxt.append((l0 * t0, l1 * t1))
            nxt.append((l0 * (1.0 - t0), l1 * (1.0 - t1)))
        if merge and len(nxt) > 2:  # the children of nodes 0 and 1, by outcome
            (a0, a1), (b0, b1), (c0, c1), (d0, d1) = nxt
            nxt = [(a0 + c0, a1 + c1), (b0 + d0, b1 + d1)]
        w = nxt
    return 0.5 * total, nodes


def _strategy_eval(p_succ: float, nodes: list, key) -> StrategyEval:
    """The measurement tree of a walk's nodes, keyed by ``key(k, i)``."""
    tree: dict = {}
    posts: dict = {}
    for k, i, l0, l1, case, n, _, _ in nodes:
        label = key(k, i)
        tree[label] = _build_povm(case, n)
        posts[label] = l0 / (l0 + l1)
    return StrategyEval(p_succ, tree, posts)


def eval_bayesian(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> StrategyEval:
    """Full-history feedforward: one measurement node per outcome history."""
    p, nodes = _walk(StrategyKind.BAYESIAN, eta0, eta1, sched)
    return _strategy_eval(
        p, nodes, lambda k, idx: tuple((idx >> j) & 1 for j in range(k - 1, -1, -1))
    )


def bayesian_value(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> float:
    """Success probability of the Bayesian strategy, no tree construction."""
    return _walk(StrategyKind.BAYESIAN, eta0, eta1, sched)[0]


def eval_markovian(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> StrategyEval:
    """Last-outcome feedforward: one measurement node per shot and last outcome."""
    p, nodes = _walk(StrategyKind.MARKOVIAN, eta0, eta1, sched)
    return _strategy_eval(p, nodes, lambda k, prev: (k + 1, prev if k else None))


def markovian_value(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> float:
    """Success probability of the Markovian strategy, no tree construction."""
    return _walk(StrategyKind.MARKOVIAN, eta0, eta1, sched)[0]


def strategy_value(kind, eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> float:
    """Dispatch to the value-only evaluator for ``kind``."""
    kind = StrategyKind(kind)
    if kind is StrategyKind.GLOBAL:
        return global_value(eta0, eta1, sched)
    if kind is StrategyKind.BAYESIAN:
        return bayesian_value(eta0, eta1, sched)
    return markovian_value(eta0, eta1, sched)


# ---------------------------------------------------------------------------
# batched values


def values_objective(kinds, family, eta0, eta1, shots: int, mode=ScheduleMode.FLAT):
    """Success probabilities of many problems' schedules, as one function.

    Problem j is the strategy ``kinds[j]`` on the channel pair ``(eta0[j],
    eta1[j])`` of ``family``, with schedules of ``shots`` shots laid out in
    ``mode``: a row holds the shots' values concatenated, as
    :func:`level_widths` lays them out. Everything but the schedules is
    checked here, once, and the eta factors of the outputs are computed
    once. Returns ``f(problem, r_rows)``, the objective that
    :func:`~qcdisc.optimizer.maximize_batch` takes: it checks only that
    every row has the layout's width and that r lies in [0, 1], and returns
    the success probability of row i, problem ``problem[i]`` at the
    schedule ``r_rows[i]``.

    Bayesian and Markovian problems may mix where their schedules share a
    layout (flat, or adaptive up to two shots) and then run in one walk,
    level by level over all rows and nodes: every output is built once, the
    one-shot kernel of :mod:`helstrom` takes unnormalized weights, and the
    last shot yields only its success. A Markovian row keeps its weights,
    merged by last outcome, in nodes 0 and 1 of the Bayesian node layout,
    and zeros in the others; the layout is only as wide as the rows of a
    call need. A row's value does not depend on the other rows, nor on
    their kinds. The global strategy mixes with no other; its rows are
    scored by one stacked Kronecker build and one stacked eigensolve, in
    chunks of at most :data:`_GLOBAL_CHUNK_BYTES` of products, each row as
    :func:`global_value` scores it alone.
    """
    kinds = [StrategyKind(k) for k in kinds]
    family = ChannelFamily(family)
    mode = ScheduleMode(mode)
    eta0 = np.asarray(eta0, dtype=float)
    eta1 = np.asarray(eta1, dtype=float)
    if not eta0.shape == eta1.shape == (len(kinds),):
        raise ScheduleError(
            f"expected {len(kinds)} eta pairs, got {eta0.shape} and {eta1.shape}"
        )
    eta = np.array((eta0, eta1))
    _check_eta(family, eta)
    layouts = {tuple(level_widths(kind, mode, shots)) for kind in set(kinds)}
    if len(layouts) > 1:
        raise ScheduleError(f"bayesian and markovian schedules of {shots} shots differ in layout")
    widths = layouts.pop() if layouts else (1,) * shots  # no problem: no row to walk
    d = sum(widths)
    levels = [slice(e - w, e) for w, e in zip(widths, np.cumsum(widths).tolist())]
    for kind in set(kinds):
        _check_shots(kind, shots)

    def checked(r_rows):
        r_rows = _checked_rows(r_rows)
        if r_rows.ndim != 2 or r_rows.shape[1] != d:
            raise ScheduleError(f"expected (rows, {d}) schedules, got {r_rows.shape}")
        return r_rows

    terms = np.array(_eta_terms(family, eta, np))  # (term, channel, problem)
    if StrategyKind.GLOBAL in kinds:
        if set(kinds) != {StrategyKind.GLOBAL}:
            raise ScheduleError("global problems share no walk with the other strategies")
        # Rows per stacked eigensolve, so that the products of a chunk hold
        # at most _GLOBAL_CHUNK_BYTES.
        step = max(1, _GLOBAL_CHUNK_BYTES // (2 * 8 * 4**shots))

        def stacked(problem, r_rows):
            r_rows = checked(r_rows)
            p = np.empty(len(r_rows))
            for a in range(0, len(r_rows), step):
                chunk = slice(a, a + step)
                p[chunk] = _global_success(
                    _global_products(family, terms.take(problem[chunk], axis=2), r_rows[chunk])
                )
            return p

        return stacked
    markov = np.array([k is StrategyKind.MARKOVIAN for k in kinds], dtype=float)

    def walk(problem, r_rows):
        r_rows = checked(r_rows)
        rows = len(r_rows)
        mrow = markov.take(problem)  # 1.0 on a Markovian row, else 0.0
        markov_rows = np.count_nonzero(mrow)
        # Arrays are (channel, node or column, row), rows last for long numpy
        # loops; a node per outcome history, or per last outcome.
        terms_rows = terms.take(problem, axis=2)[:, :, None]
        rho00, rho11, x = _entries(family, terms_rows, r_rows.T, np.sqrt)
        z = 0.5 * (rho00 - rho11)
        w = np.ones((2, 1, 1))
        for cols in levels[:-1]:
            wt = w * _shot_batch(w, z[:, cols], x[:, cols], False)
            # Node i's children by outcome, 2i and 2i + 1.
            nodes = wt.shape[1]
            w = np.concatenate((wt[:, :, None], (w - wt)[:, :, None]), axis=2)
            w = w.reshape(2, 2 * nodes, rows)
            if nodes > 1 and markov_rows:
                # A Markovian row merges the children of its nodes 0 and 1
                # by outcome. Adding 0 * w and scaling by 1 keep the bits of
                # a Bayesian row.
                if markov_rows == rows:
                    w = w[:, :2] + w[:, 2:4]
                else:
                    w[:, :2] += mrow * w[:, 2:4]
                    w[:, 2:4] *= 1.0 - mrow
        p = _shot_batch(w, z[:, levels[-1]], x[:, levels[-1]], True)
        while len(p) > 1:  # pairwise over the nodes, alike in every batch
            p = p[0::2] + p[1::2]
        return 0.5 * p[0]

    return walk


# ---------------------------------------------------------------------------
# Monte Carlo check


def simulate_protocol(
    kind,
    eta0: ChannelSpec,
    eta1: ChannelSpec,
    sched: InputSchedule,
    trials: int,
    seed: int,
) -> float:
    """Sampled success frequency of a strategy's measurement tree.

    Samples how many trials reach each node, not each trial's path: the
    trials under channel 0 are binomial(trials, 1/2), and every node splits
    its count under each channel between its two outcomes with one binomial
    draw at the node's trace Tr(rho_c pi0). The final outcome is the guess.
    Conditional binomial splitting draws the same multinomial over the
    leaves as a walk trial by trial (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. XI), so the frequency has the same distribution,
    at a cost that grows with the nodes of the tree and not with
    ``trials``. Deterministic for a fixed seed.
    """
    try:
        trials = operator.index(trials)  # a float would be truncated by the draws
    except TypeError:
        raise ValueError(f"trials must be an integer, got {trials!r}") from None
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials >= 2**63:  # numpy draws from a C long
        raise ValueError(f"trials must be < 2**63, got {trials}")
    kind = StrategyKind(kind)
    rng = np.random.default_rng(seed)
    first = rng.binomial(trials, 0.5)
    count = np.array([[first], [trials - first]])  # (channel, node)

    if kind is StrategyKind.GLOBAL:
        _, c0, c1 = _global_measurement(eta0, eta1, sched)
        # On identical channels a trace can round just past 1.
        hits = rng.binomial(count[:, 0], np.clip((c0, c1), 0.0, 1.0))
        return float(hits.sum() / trials)

    # prob0[k][c, i]: probability of outcome 0 at node i of shot k+1 under
    # channel c; a node the walk never reached keeps 0.5 and a count of 0.
    bayes = kind is StrategyKind.BAYESIAN
    _, nodes = _walk(kind, eta0, eta1, sched)
    prob0 = [np.full((2, w), 0.5) for w in level_widths(kind, ScheduleMode.ADAPTIVE, sched.shots)]
    for k, i, *_, t0, t1 in nodes:
        prob0[k][:, i] = t0, t1
    for p0out in prob0:
        zero = rng.binomial(count, p0out)
        one = count - zero
        if bayes:  # node i's children 2i and 2i + 1
            count = np.stack((zero, one), axis=2).reshape(2, -1)
        else:  # the children merged by outcome
            count = np.stack((zero.sum(axis=1), one.sum(axis=1)), axis=1)
    return float((count[0, 0::2].sum() + count[1, 1::2].sum()) / trials)
