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

Each feedforward rule is written once, as a scalar walk over one schedule
that returns the success probability and the nodes it reaches, each with
its posterior, measurement and traces ``Tr(rho_c pi0)``. ``*_value`` return
the walk's success probability, ``eval_*`` the measurement tree built from
its nodes, and :func:`simulate_protocol` samples outcomes from its traces.
:func:`values` computes the success probability of many real (phi = 0)
schedules and channel pairs at once, level by level; the input optimizer
calls it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .channels import ETA_MAX, ChannelFamily, ChannelSpec, _entries_batch, output_entries
from .helstrom import Povm, PovmCase, _build_povm, _traces_batch, success_and_traces

__all__ = [
    "BAYES_SHOT_CAP",
    "GLOBAL_SHOT_CAP",
    "InputSchedule",
    "ScheduleError",
    "StrategyEval",
    "StrategyKind",
    "bayesian_value",
    "eval_bayesian",
    "eval_global",
    "eval_markovian",
    "global_value",
    "markovian_value",
    "simulate_protocol",
    "strategy_value",
    "values",
]

GLOBAL_SHOT_CAP = 10
BAYES_SHOT_CAP = 14


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
    outcome only, consumed by the Markovian strategy). The phase is one
    shared value, zero by default.
    """

    mode: ScheduleMode
    levels: tuple
    phi: float = 0.0

    @classmethod
    def flat(cls, r_values, phi: float = 0.0) -> "InputSchedule":
        vals = tuple(float(r) for r in r_values)
        if not vals:
            raise ScheduleError("schedule needs at least one shot")
        for r in vals:
            _check_r(r)
        return cls(ScheduleMode.FLAT, vals, phi)

    @classmethod
    def adaptive(cls, levels, phi: float = 0.0) -> "InputSchedule":
        lv = tuple(tuple(float(r) for r in level) for level in levels)
        if not lv:
            raise ScheduleError("schedule needs at least one shot")
        if len(lv[0]) != 1:
            raise ScheduleError("adaptive level 0 must hold exactly one value")
        for level in lv:
            for r in level:
                _check_r(r)
        return cls(ScheduleMode.ADAPTIVE, lv, phi)

    @property
    def shots(self) -> int:
        return len(self.levels)


def _check_r(r: float):
    if not 0.0 <= r <= 1.0:
        raise ScheduleError(f"r must be in [0, 1], got {r}")


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


def _require_pair(eta0: ChannelSpec, eta1: ChannelSpec):
    if eta0.family is not eta1.family:
        raise ValueError(
            f"channel families differ: {eta0.family.value} vs {eta1.family.value}"
        )


def _check_schedule(sched: InputSchedule, kind: StrategyKind):
    if sched.mode is ScheduleMode.FLAT:
        return
    if kind is StrategyKind.GLOBAL:
        raise ScheduleError("global strategy takes a flat schedule")
    for k, level in enumerate(sched.levels):
        want = 2**k if kind is StrategyKind.BAYESIAN else min(2**k, 2)
        if len(level) != want:
            raise ScheduleError(
                f"adaptive level {k} holds {len(level)} values, "
                f"{kind.value} needs {want}"
            )


def _matrix(s) -> np.ndarray:
    return np.array([[s[0], s[2]], [s[2].conjugate(), s[1]]], dtype=complex)


def _flat_pairs(eta0, eta1, sched):
    return [
        (output_entries(eta0, r, sched.phi), output_entries(eta1, r, sched.phi))
        for r in sched.levels
    ]


# ---------------------------------------------------------------------------
# global strategy


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        n = out.shape[0]
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(2 * n, 2 * n)
    return out


def _global_products(eta0, eta1, sched):
    pairs = _flat_pairs(eta0, eta1, sched)
    # phi = 0 keeps every entry real; the real eigensolver is much faster.
    if sched.phi == 0.0:
        def mat(s):
            return np.array([[s[0], s[2].real], [s[2].real, s[1]]])
    else:
        mat = _matrix
    r0 = _kron_chain([mat(s0) for s0, _ in pairs])
    r1 = _kron_chain([mat(s1) for _, s1 in pairs])
    return r0, r1


def _check_global(eta0, eta1, sched):
    _require_pair(eta0, eta1)
    _check_schedule(sched, StrategyKind.GLOBAL)
    if sched.shots > GLOBAL_SHOT_CAP:
        raise ValueError(
            f"global strategy capped at {GLOBAL_SHOT_CAP} shots, got {sched.shots}"
        )


def _global_measurement(eta0, eta1, sched):
    """The collective measurement and its traces Tr(rho0 pi0), Tr(rho1 pi1)."""
    _check_global(eta0, eta1, sched)
    r0, r1 = _global_products(eta0, eta1, sched)
    delta = 0.5 * (r0 - r1)
    vals, vecs = np.linalg.eigh(delta)
    mask = vals >= 0.0
    dim = delta.shape[0]
    eye = np.eye(dim, dtype=delta.dtype)
    if mask.all():
        pi0, tag = eye, PovmCase.ALWAYS_GUESS_0
    elif not mask.any():
        pi0, tag = np.zeros((dim, dim), dtype=delta.dtype), PovmCase.ALWAYS_GUESS_1
    else:
        kept = vecs[:, mask]
        pi0, tag = kept @ kept.conj().T, PovmCase.PROJECTIVE
    pi1 = eye - pi0
    return Povm(pi0, pi1, tag), np.trace(r0 @ pi0).real, np.trace(r1 @ pi1).real


def eval_global(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> StrategyEval:
    """Collective measurement on all shots jointly."""
    povm, c0, c1 = _global_measurement(eta0, eta1, sched)
    return StrategyEval(0.5 * float(c0 + c1), {"global": povm}, {"global": 0.5})


def global_value(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> float:
    """Success probability of the collective measurement, eigenvalues only."""
    _check_global(eta0, eta1, sched)
    r0, r1 = _global_products(eta0, eta1, sched)
    vals = np.linalg.eigvalsh(0.5 * (r0 - r1))
    return 0.5 + float(vals[vals >= 0.0].sum())


# ---------------------------------------------------------------------------
# bayesian strategy


def _check_bayes(eta0, eta1, sched):
    _require_pair(eta0, eta1)
    _check_schedule(sched, StrategyKind.BAYESIAN)
    if sched.shots > BAYES_SHOT_CAP:
        raise ValueError(
            f"bayesian strategy capped at {BAYES_SHOT_CAP} shots, got {sched.shots}"
        )


def _node_pair(eta0, eta1, sched, pairs, k: int, i: int):
    """Output entries of both channels at node ``i`` of shot ``k + 1``."""
    if pairs is not None:
        return pairs[k]
    r = sched.levels[k][i]
    return output_entries(eta0, r, sched.phi), output_entries(eta1, r, sched.phi)


def _bayesian_walk(eta0, eta1, sched):
    """Full-history feedforward: the success probability and its nodes.

    Walks the outcome tree depth first. Node ``(k, idx)`` is the history of
    k outcomes that spells idx in binary, first outcome highest. It
    reweights the hypotheses by the likelihood of its history and takes the
    optimal one-shot measurement at that weight; the leaves accumulate the
    probability that the final outcome names the true channel. Returns
    ``(p_succ, nodes)``, where ``nodes`` lists ``(k, idx, p0, case, v0, t0,
    t1)`` for each node reached, in visiting order.
    """
    _check_bayes(eta0, eta1, sched)
    last = sched.shots - 1
    pairs = _flat_pairs(eta0, eta1, sched) if sched.mode is ScheduleMode.FLAT else None
    nodes = []
    total = 0.0
    stack = [(0, 0, 1.0, 1.0)]
    while stack:
        k, idx, l0, l1 = stack.pop()
        tot = l0 + l1
        if tot <= 0.0:
            continue  # a history neither channel can produce
        s0, s1 = _node_pair(eta0, eta1, sched, pairs, k, idx)
        p0 = l0 / tot
        case, _, t0, t1, _, _, v0 = success_and_traces(p0, s0, s1)
        nodes.append((k, idx, p0, case, v0, t0, t1))
        if k == last:
            total += l0 * t0 + l1 * (1.0 - t1)
        else:
            stack.append((k + 1, idx << 1, l0 * t0, l1 * t1))
            stack.append((k + 1, (idx << 1) | 1, l0 * (1.0 - t0), l1 * (1.0 - t1)))
    return 0.5 * total, nodes


def _strategy_eval(p_succ: float, nodes: list, key) -> StrategyEval:
    """The measurement tree of a walk's nodes, keyed by ``key(k, i)``."""
    tree: dict = {}
    posts: dict = {}
    for k, i, p0, case, v0, _, _ in nodes:
        label = key(k, i)
        tree[label] = _build_povm(case, v0)
        posts[label] = p0
    return StrategyEval(p_succ, tree, posts)


def eval_bayesian(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> StrategyEval:
    """Full-history feedforward: one measurement node per outcome history."""
    p, nodes = _bayesian_walk(eta0, eta1, sched)
    return _strategy_eval(
        p, nodes, lambda k, idx: tuple((idx >> j) & 1 for j in range(k - 1, -1, -1))
    )


def bayesian_value(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> float:
    """Success probability of the Bayesian strategy, no tree construction."""
    return _bayesian_walk(eta0, eta1, sched)[0]


# ---------------------------------------------------------------------------
# markovian strategy


def _check_markov(eta0, eta1, sched):
    _require_pair(eta0, eta1)
    _check_schedule(sched, StrategyKind.MARKOVIAN)


def _markovian_walk(eta0, eta1, sched):
    """Last-outcome feedforward, histories marginalized.

    Keeps one weight per (channel, last outcome) pair. Node ``(k, prev)`` is
    shot k+1 after outcome prev (the first shot is ``(0, 0)``): it solves
    the one-shot problem at its weights and pushes them forward through the
    chosen measurement. The final outcome is the guess. Returns
    ``(p_succ, nodes)`` as :func:`_bayesian_walk` does.
    """
    _check_markov(eta0, eta1, sched)
    pairs = _flat_pairs(eta0, eta1, sched) if sched.mode is ScheduleMode.FLAT else None
    nodes = []
    # (weight under channel 0, under channel 1) per last outcome; before the
    # first shot all weight sits on outcome 0.
    w = ((1.0, 1.0), (0.0, 0.0))
    for k in range(sched.shots):
        n00 = n01 = n10 = n11 = 0.0
        for prev, (m0, m1) in enumerate(w):
            tot = m0 + m1
            if tot <= 0.0:
                continue  # a last outcome neither channel can produce
            s0, s1 = _node_pair(eta0, eta1, sched, pairs, k, prev)
            p0 = m0 / tot
            case, _, t0, t1, _, _, v0 = success_and_traces(p0, s0, s1)
            nodes.append((k, prev, p0, case, v0, t0, t1))
            n00 += m0 * t0
            n01 += m0 * (1.0 - t0)
            n10 += m1 * t1
            n11 += m1 * (1.0 - t1)
        w = ((n00, n10), (n01, n11))
    return 0.5 * (w[0][0] + w[1][1]), nodes


def eval_markovian(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> StrategyEval:
    """Last-outcome feedforward: one measurement node per shot and last outcome."""
    p, nodes = _markovian_walk(eta0, eta1, sched)
    return _strategy_eval(p, nodes, lambda k, prev: (k + 1, prev if k else None))


def markovian_value(eta0: ChannelSpec, eta1: ChannelSpec, sched: InputSchedule) -> float:
    """Success probability of the Markovian strategy, no tree construction."""
    return _markovian_walk(eta0, eta1, sched)[0]


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


def _level_columns(kind: StrategyKind, mode: ScheduleMode, d: int) -> list:
    """Column slice of each shot's r values in a parameter row of length d."""
    if mode is ScheduleMode.FLAT:
        return [slice(k, k + 1) for k in range(d)]
    if kind is StrategyKind.BAYESIAN:
        shots = (d + 1).bit_length() - 1
        if 2**shots - 1 != d:
            raise ScheduleError(f"{d} adaptive bayesian parameters fit no shot count")
        return [slice(2**k - 1, 2 ** (k + 1) - 1) for k in range(shots)]
    if d % 2 == 0:
        raise ScheduleError(f"{d} adaptive markovian parameters fit no shot count")
    return [slice(0, 1)] + [slice(2 * k - 1, 2 * k + 1) for k in range(1, (d + 1) // 2)]


def values(kind, family, eta0, eta1, r_rows, mode=ScheduleMode.FLAT) -> np.ndarray:
    """Success probabilities of many phi = 0 schedules at once.

    Row i of ``r_rows`` is a schedule for the channel pair
    ``(eta0[i], eta1[i])`` of ``family``: one r per shot in flat ``mode``,
    otherwise the adaptive levels concatenated (1, 2, 4, ... values for the
    Bayesian strategy, 1, 2, 2, ... for the Markovian). The Bayesian and
    Markovian walks run level by level over all rows and all nodes of a
    level; they agree with :func:`bayesian_value` and
    :func:`markovian_value` to rounding, and a row's value does not depend
    on the other rows. The global strategy calls :func:`global_value` per
    row, since its cost is the eigensolve.
    """
    kind = StrategyKind(kind)
    family = ChannelFamily(family)
    mode = ScheduleMode(mode)
    r_rows = np.asarray(r_rows, dtype=float)
    eta0 = np.asarray(eta0, dtype=float)
    eta1 = np.asarray(eta1, dtype=float)
    rows = len(r_rows)
    if r_rows.ndim != 2 or r_rows.shape[1] < 1 or not eta0.shape == eta1.shape == (rows,):
        raise ScheduleError(
            f"expected (rows, d) schedules and (rows,) etas, got {r_rows.shape}, "
            f"{eta0.shape} and {eta1.shape}"
        )
    if not np.all((r_rows >= 0.0) & (r_rows <= 1.0)):
        raise ScheduleError("r must be in [0, 1]")
    hi = ETA_MAX[family]
    if not np.all((eta0 >= 0.0) & (eta0 <= hi) & (eta1 >= 0.0) & (eta1 <= hi)):
        raise ValueError(f"eta out of range [0, {hi:.6g}] for {family.value}")
    if kind is StrategyKind.GLOBAL:
        if mode is not ScheduleMode.FLAT:
            raise ScheduleError("global strategy takes a flat schedule")
        return np.array([
            global_value(ChannelSpec(family, e0), ChannelSpec(family, e1), InputSchedule.flat(r))
            for e0, e1, r in zip(eta0, eta1, r_rows)
        ])
    levels = _level_columns(kind, mode, r_rows.shape[1])
    if kind is StrategyKind.BAYESIAN and len(levels) > BAYES_SHOT_CAP:
        raise ValueError(
            f"bayesian strategy capped at {BAYES_SHOT_CAP} shots, got {len(levels)}"
        )
    eta0 = eta0[:, None]
    eta1 = eta1[:, None]
    # Hypothesis weights of the nodes of a level: one node per outcome
    # history for the Bayesian strategy, per last outcome for the Markovian.
    l0 = l1 = np.ones((rows, 1))
    for k, cols in enumerate(levels):
        if k:
            out0 = (l0 * t0, l0 * (1.0 - t0))
            out1 = (l1 * t1, l1 * (1.0 - t1))
            if kind is StrategyKind.BAYESIAN:
                l0 = np.stack(out0, axis=2).reshape(rows, 2 * t0.shape[1])
                l1 = np.stack(out1, axis=2).reshape(rows, 2 * t1.shape[1])
            else:
                l0 = np.stack([w.sum(axis=1) for w in out0], axis=1)
                l1 = np.stack([w.sum(axis=1) for w in out1], axis=1)
        tot = l0 + l1
        dead = tot <= 0.0
        if dead.any():
            # A node without weight is unreachable and contributes nothing.
            l0 = np.where(dead, 0.0, l0)
            l1 = np.where(dead, 0.0, l1)
            tot[dead] = 1.0
        r = r_rows[:, cols]
        t0, t1 = _traces_batch(
            l0 / tot, _entries_batch(family, eta0, r), _entries_batch(family, eta1, r)
        )
    return 0.5 * (l0 * t0 + l1 * (1.0 - t1)).sum(axis=1)


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

    Draws the true channel uniformly per trial, samples each measurement
    outcome from its exact distribution, and scores the final outcome as
    the guess. Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    kind = StrategyKind(kind)
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=trials)

    if kind is StrategyKind.GLOBAL:
        _, c0, c1 = _global_measurement(eta0, eta1, sched)
        hit = rng.random(trials) < np.array([c0, c1])[truth]
        return float(hit.mean())

    # prob0[k][c, i]: probability of outcome 0 at node i of shot k+1 under
    # channel c; a node the walk never reached keeps 0.5 and is never sampled.
    bayes = kind is StrategyKind.BAYESIAN
    _, nodes = (_bayesian_walk if bayes else _markovian_walk)(eta0, eta1, sched)
    prob0 = [np.full((2, 2**k if bayes else 2), 0.5) for k in range(sched.shots)]
    for k, i, _, _, _, t0, t1 in nodes:
        prob0[k][:, i] = t0, t1
    node = np.zeros(trials, dtype=np.int64)
    for p0out in prob0:
        bit = (rng.random(trials) >= p0out[truth, node]).astype(np.int64)
        node = (node << 1) | bit if bayes else bit
    return float(((node & 1) == truth).mean())
