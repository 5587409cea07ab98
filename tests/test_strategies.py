import functools
import itertools
import math
import re

import numpy as np
import pytest

from conftest import FAMILIES, random_spec_pair
from oracles import InputState, apply, eigen_hermitian, outcome_probs, pure_state
import qcdisc.strategies as strategies
from qcdisc.channels import ETA_MAX, MIRRORED, ChannelFamily, ChannelSpec, output_entries
from qcdisc.helstrom import WeightedPair, optimal_povm
from qcdisc.optimizer import maximize
from qcdisc.strategies import (
    SHOT_CAP,
    InputSchedule,
    ScheduleError,
    StrategyKind,
    bayesian_value,
    eval_bayesian,
    eval_global,
    eval_markovian,
    global_value,
    markovian_value,
    simulate_protocol,
    strategy_value,
    level_widths,
    values_objective,
)
from qcdisc.strategies import _global_measurement, _kron_stack, _walk

DEP = (ChannelSpec(ChannelFamily.DEPOLARIZING, 0.75), ChannelSpec(ChannelFamily.DEPOLARIZING, 0.4))
BF = (ChannelSpec(ChannelFamily.BIT_FLIP, 0.75), ChannelSpec(ChannelFamily.BIT_FLIP, 0.4))
AD = (
    ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, 0.75 * math.pi / 2),
    ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, 0.4 * math.pi / 2),
)
ALL_PAIRS = (DEP, BF, AD)
EVALUATORS = {
    "global": eval_global,
    "bayesian": eval_bayesian,
    "markovian": eval_markovian,
}


def channel_matrix(spec, sched, k, node_index=0):
    if sched.mode.value == "flat":
        r = sched.levels[k]
    else:
        r = sched.levels[k][node_index]
    s = output_entries(spec, r)
    return np.array([[s[0], s[2]], [s[2].conjugate(), s[1]]], dtype=complex)


def enumerate_histories(spec0, spec1, sched, povm_for_step):
    """Oracle: sum the success over every explicit outcome sequence."""
    shots = sched.shots
    total = 0.0
    for hist in itertools.product((0, 1), repeat=shots):
        for c, spec in enumerate((spec0, spec1)):
            prob = 1.0
            for k, bit in enumerate(hist):
                if prob == 0.0:
                    break  # dead branch; no measurement node exists there
                povm = povm_for_step(hist, k)
                rho = channel_matrix(spec, sched, k)
                q0, q1 = outcome_probs(rho, povm)
                prob *= q0 if bit == 0 else q1
            if hist[-1] == c:
                total += prob
    return 0.5 * total


# ---------------------------------------------------------------------------
# schedules


def test_flat_schedule_validation():
    with pytest.raises(ScheduleError):
        InputSchedule.flat([])
    with pytest.raises(ScheduleError):
        InputSchedule.flat([0.5, 1.2])


def test_adaptive_schedule_shapes():
    sched = InputSchedule.adaptive([(0.1,), (0.2, 0.3)])
    assert sched.shots == 2
    with pytest.raises(ScheduleError):
        InputSchedule.adaptive([(0.1, 0.2)])
    bayes_shaped = InputSchedule.adaptive([(0.1,), (0.2, 0.3), (0.4, 0.5, 0.6, 0.7)])
    markov_shaped = InputSchedule.adaptive([(0.1,), (0.2, 0.3), (0.4, 0.5)])
    eval_bayesian(*BF, bayes_shaped)
    eval_markovian(*BF, markov_shaped)
    with pytest.raises(ScheduleError):
        eval_bayesian(*BF, markov_shaped)
    with pytest.raises(ScheduleError):
        eval_markovian(*BF, bayes_shaped)
    with pytest.raises(ScheduleError):
        eval_global(*BF, markov_shaped)


def test_caps_and_family_mismatch():
    with pytest.raises(ValueError):
        eval_global(*BF, InputSchedule.flat([0.5] * (SHOT_CAP[StrategyKind.GLOBAL] + 1)))
    with pytest.raises(ValueError):
        eval_bayesian(*BF, InputSchedule.flat([0.5] * (SHOT_CAP[StrategyKind.BAYESIAN] + 1)))
    with pytest.raises(ValueError):
        eval_global(BF[0], DEP[1], InputSchedule.flat([0.5]))


# ---------------------------------------------------------------------------
# reductions and equalities


def test_one_shot_reduction(rng):
    for _ in range(10):
        spec0, spec1 = random_spec_pair(rng, FAMILIES[rng.integers(0, 3)])
        r = float(rng.random())
        sched = InputSchedule.flat([r])
        state = InputState(r)
        ref = optimal_povm(
            WeightedPair(0.5, apply(spec0, pure_state(state)), apply(spec1, pure_state(state)))
        ).p_succ
        for name, evaluator in EVALUATORS.items():
            assert abs(evaluator(spec0, spec1, sched).p_succ - ref) <= 1e-12, name


def test_two_shot_bayesian_equals_markovian(rng):
    for _ in range(15):
        spec0, spec1 = random_spec_pair(rng, FAMILIES[rng.integers(0, 3)])
        sched = InputSchedule.flat(rng.random(2))
        pb = eval_bayesian(spec0, spec1, sched).p_succ
        pm = eval_markovian(spec0, spec1, sched).p_succ
        assert abs(pb - pm) <= 1e-12


def test_markovian_forward_equals_enumeration(rng):
    for _ in range(5):
        spec0, spec1 = random_spec_pair(rng, FAMILIES[rng.integers(0, 3)])
        sched = InputSchedule.flat(rng.random(5))
        ev = eval_markovian(spec0, spec1, sched)

        def povm_for_step(hist, k):
            key = (1, None) if k == 0 else (k + 1, hist[k - 1])
            return ev.povm_tree[key]

        oracle = enumerate_histories(spec0, spec1, sched, povm_for_step)
        assert abs(ev.p_succ - oracle) <= 1e-12


def test_bayesian_tree_equals_enumeration(rng):
    for _ in range(5):
        spec0, spec1 = random_spec_pair(rng, FAMILIES[rng.integers(0, 3)])
        sched = InputSchedule.flat(rng.random(4))
        ev = eval_bayesian(spec0, spec1, sched)

        def povm_for_step(hist, k):
            return ev.povm_tree[hist[:k]]

        oracle = enumerate_histories(spec0, spec1, sched, povm_for_step)
        assert abs(ev.p_succ - oracle) <= 1e-12


def test_fast_values_match_tree_evals(rng):
    fast = {"global": global_value, "bayesian": bayesian_value, "markovian": markovian_value}
    for _ in range(10):
        spec0, spec1 = random_spec_pair(rng, FAMILIES[rng.integers(0, 3)])
        sched = InputSchedule.flat(rng.random(4))
        for name in EVALUATORS:
            tree_p = EVALUATORS[name](spec0, spec1, sched).p_succ
            assert abs(fast[name](spec0, spec1, sched) - tree_p) <= 1e-14
    # adaptive variants
    spec0, spec1 = BF
    bayes_sched = InputSchedule.adaptive([(0.1,), (0.9, 0.2), (0.3, 0.4, 0.6, 0.8)])
    assert (
        abs(bayesian_value(spec0, spec1, bayes_sched) - eval_bayesian(spec0, spec1, bayes_sched).p_succ)
        <= 1e-14
    )
    markov_sched = InputSchedule.adaptive([(0.1,), (0.9, 0.2), (0.3, 0.4)])
    assert (
        abs(markovian_value(spec0, spec1, markov_sched) - eval_markovian(spec0, spec1, markov_sched).p_succ)
        <= 1e-14
    )


def test_global_matches_iterative_eigensolver(rng):
    # Rebuild the collective measurement from the reference Jacobi
    # eigensolver of the test oracles and compare success probabilities.
    for spec0, spec1 in ALL_PAIRS:
        sched = InputSchedule.flat(rng.random(3))
        prod0 = channel_matrix(spec0, sched, 0)
        prod1 = channel_matrix(spec1, sched, 0)
        for k in (1, 2):
            prod0 = np.kron(prod0, channel_matrix(spec0, sched, k))
            prod1 = np.kron(prod1, channel_matrix(spec1, sched, k))
        eig = eigen_hermitian(0.5 * (prod0 - prod1))
        kept = eig.eigenvectors[:, eig.eigenvalues >= 0]
        pi0 = kept @ kept.conj().T
        pi1 = np.eye(8) - pi0
        p_ref = 0.5 * float((np.trace(prod0 @ pi0) + np.trace(prod1 @ pi1)).real)
        assert abs(eval_global(spec0, spec1, sched).p_succ - p_ref) <= 1e-12


def test_kron_stack_equals_numpy_kron(rng):
    # Real factors, as channel outputs give. General 2x2 entries, so that a
    # transposed block would show, on a (2, 3) stack of factor lists.
    for n in range(1, 9):
        mats = rng.normal(size=(2, 3, n, 2, 2))
        got = _kron_stack(mats)
        assert got.dtype == np.float64
        for i, j in itertools.product(range(2), range(3)):
            assert np.array_equal(got[i, j], functools.reduce(np.kron, list(mats[i, j])))


def test_global_identical_channels_coin_flip():
    spec = ChannelSpec(ChannelFamily.BIT_FLIP, 0.3)
    ev = eval_global(spec, spec, InputSchedule.flat([0.2, 0.7]))
    assert abs(ev.p_succ - 0.5) <= 1e-14


def test_strategy_ordering_same_schedule(rng):
    for _ in range(15):
        spec0, spec1 = random_spec_pair(rng, FAMILIES[rng.integers(0, 3)])
        sched = InputSchedule.flat(rng.random(3))
        pg = global_value(spec0, spec1, sched)
        pb = bayesian_value(spec0, spec1, sched)
        pm = markovian_value(spec0, spec1, sched)
        assert pg >= pb - 1e-9
        assert pb >= pm - 1e-9


def test_three_shot_bayesian_at_least_markovian(rng):
    # Shots 1 and 2 of the two walks are the same; at shot 3 a Markovian node
    # merges two Bayesian histories, and the one-shot success on unnormalized
    # weights has S(a) + S(b) >= S(a + b). So B >= M on a shared flat
    # schedule, and on an adaptive Markovian schedule relabelled as a
    # Bayesian one: level-3 node i takes the value of last outcome i mod 2.
    worst = -1.0
    for i in range(900):
        pair = random_spec_pair(rng, FAMILIES[i % 3])
        r = np.where(rng.random(5) < 0.3, rng.integers(0, 2, 5), rng.random(5))
        flat = InputSchedule.flat(r[:3])
        markov = InputSchedule.adaptive([r[:1], r[1:3], r[3:5]])
        bayes = InputSchedule.adaptive([r[:1], r[1:3], np.tile(r[3:5], 2)])
        worst = max(worst, markovian_value(*pair, flat) - bayesian_value(*pair, flat),
                    markovian_value(*pair, markov) - bayesian_value(*pair, bayes))
    assert worst <= 1e-12


def test_four_shot_markovian_can_beat_bayesian():
    # From 4 shots on, the greedy Bayesian rule can lose to the Markovian one
    # on a shared schedule: B >= M is a theorem only up to 3 shots.
    sched = InputSchedule.flat([0.9, 0.9, 1.0, 1.0])
    pb, pm, pg = (strategy_value(kind, *BF, sched) for kind in ("bayesian", "markovian", "global"))
    assert abs(pb - 0.6888666202500877) <= 1e-12
    assert abs(pm - 0.7262959568156523) <= 1e-12
    assert abs(pg - 0.7597947810376559) <= 1e-12
    assert pb < pm < pg


def test_bayesian_continuous_at_box_edge():
    # r = 1 makes the outputs diagonal and the one-shot rule meets exact
    # ties; the value there must be the limit from inside the box, and stay
    # below the global value on the same schedule.
    spec0 = ChannelSpec(ChannelFamily.BIT_FLIP, 0.793)
    spec1 = ChannelSpec(ChannelFamily.BIT_FLIP, 0.207)
    edge = InputSchedule.flat([1.0, 1.0, 0.0])
    inside = InputSchedule.flat([1 - 1e-9, 1 - 1e-9, 1e-9])
    pb = bayesian_value(spec0, spec1, edge)
    assert abs(pb - bayesian_value(spec0, spec1, inside)) <= 1e-6
    assert pb <= global_value(spec0, spec1, edge) + 1e-12


def test_continuous_at_box_edge_on_the_mirror_tie():
    # At r = (0, 0.9, 0) the node (shot 2, last outcome 0) has p0 = 6/7 and
    # lam1 = 0 exactly: measuring ties with always guessing 0. The values at
    # the edge must be the limits from inside the box, for both walks and
    # the batched ones, and the Bayesian one must stay below the global one.
    family = ChannelFamily.BIT_FLIP
    spec0, spec1 = ChannelSpec(family, 6 / 7), ChannelSpec(family, 1 / 7)
    edge, inside = (0.0, 0.9, 0.0), (1e-9, 0.9, 1e-9)
    for kind, value in (("bayesian", bayesian_value), ("markovian", markovian_value)):
        want = value(spec0, spec1, InputSchedule.flat(inside))
        assert abs(value(spec0, spec1, InputSchedule.flat(edge)) - want) <= 1e-6, kind
        batched = objective_values(kind, family, [6 / 7], [1 / 7], [edge], 3)[0]
        assert abs(batched - want) <= 1e-6, kind
    sched = InputSchedule.flat(edge)
    assert bayesian_value(spec0, spec1, sched) <= global_value(spec0, spec1, sched) + 1e-12


def test_pure_outputs_all_strategies_agree(rng):
    # Bit-flip at eta = 1 and eta = 0 keeps a pure input pure. For pure
    # outputs the greedy Bayesian strategy attains the collective optimum
    # (Brody & Meister, PRL 76, 1 (1996); Acin et al., PRA 71, 032338
    # (2005)), and so does the Markovian one.
    spec0 = ChannelSpec(ChannelFamily.BIT_FLIP, 1.0)
    spec1 = ChannelSpec(ChannelFamily.BIT_FLIP, 0.0)
    rows = [rng.random(n) for n in range(1, 6) for _ in range(40)]
    rows += [(0.0, 1.0, 0.5), (1.0, 1.0, 1.0), (0.5, 0.5), (0.0,), (1.0, 0.0, 1.0, 0.0)]
    for row in rows:
        sched = InputSchedule.flat(row)
        pg = global_value(spec0, spec1, sched)
        assert abs(bayesian_value(spec0, spec1, sched) - pg) <= 1e-14, row
        assert abs(markovian_value(spec0, spec1, sched) - pg) <= 1e-14, row


@pytest.mark.parametrize("dyadic", [True, False])
def test_bit_flip_mirror_keeps_every_value(rng, dyadic):
    # X commutes with bit-flip and maps r to 1 - r: any shot's (flat) or
    # node's (adaptive) r -> 1 - r keeps B and M, to the bit where 1 - r is
    # exact, and G within rounding. Amplitude damping has no such mirror.
    assert ChannelFamily.BIT_FLIP in MIRRORED and ChannelFamily.AMPLITUDE_DAMPING not in MIRRORED
    moved = 0.0
    for i in range(40):
        shots = 1 + i % 4
        for pair in (random_spec_pair(rng, ChannelFamily.BIT_FLIP),
                     random_spec_pair(rng, ChannelFamily.AMPLITUDE_DAMPING)):
            for kind, mode in (("global", "flat"), *itertools.product(
                    ("bayesian", "markovian"), ("flat", "adaptive"))):
                widths = level_widths(kind, mode, shots)
                r = rng.integers(0, 65, sum(widths)) / 64 if dyadic else rng.random(sum(widths))
                flip = rng.random(r.size) < 0.5
                flip[rng.integers(r.size)] = True  # at least one r moves
                values = []
                for row in (r, np.where(flip, 1.0 - r, r)):
                    sched = (InputSchedule.flat(row) if mode == "flat" else
                             InputSchedule.adaptive(np.split(row, np.cumsum(widths)[:-1])))
                    values.append(strategy_value(kind, *pair, sched))
                gap = abs(values[0] - values[1])
                if pair[0].family is ChannelFamily.AMPLITUDE_DAMPING:
                    moved = max(moved, gap)
                elif kind == "global" or not dyadic:
                    assert gap <= 1e-15, (kind, mode, r, flip)
                else:
                    assert values[0] == values[1], (kind, mode, r, flip)
    assert moved > 1e-2


def test_depolarizing_input_independence(rng):
    spec0, spec1 = DEP
    for name, evaluator in EVALUATORS.items():
        values = [
            evaluator(spec0, spec1, InputSchedule.flat(rng.random(3))).p_succ
            for _ in range(20)
        ]
        assert max(values) - min(values) <= 1e-10, name


def test_posteriors_and_tree_shape(rng):
    spec0, spec1 = AD
    sched = InputSchedule.flat(rng.random(3))
    ev = eval_bayesian(spec0, spec1, sched)
    assert len(ev.povm_tree) == 7  # 1 + 2 + 4 nodes
    assert all(0.0 <= p <= 1.0 for p in ev.posteriors.values())
    assert 0.5 <= ev.p_succ <= 1.0
    evm = eval_markovian(spec0, spec1, sched)
    assert set(evm.povm_tree) == {(1, None), (2, 0), (2, 1), (3, 0), (3, 1)}
    assert all(0.0 <= p <= 1.0 for p in evm.posteriors.values())


def test_measurement_trees_are_real(rng):
    # Channel outputs are real, and so is every measurement built on them.
    for pair in ALL_PAIRS:
        sched = InputSchedule.flat(rng.random(3))
        for name, evaluator in EVALUATORS.items():
            for povm in evaluator(*pair, sched).povm_tree.values():
                assert povm.pi0.dtype == povm.pi1.dtype == np.float64, name


def test_trees_skip_unreachable_nodes():
    # Identical channels: every measurement is a guess of 1, so only the
    # all-ones history is reached.
    spec = ChannelSpec(ChannelFamily.BIT_FLIP, 0.4)
    sched = InputSchedule.flat([0.2, 0.5, 0.7])
    assert set(eval_bayesian(spec, spec, sched).povm_tree) == {(), (1,), (1, 1)}
    assert set(eval_markovian(spec, spec, sched).povm_tree) == {(1, None), (2, 1), (3, 1)}
    # Full damping against the identity tells the channels apart at the
    # first shot; the other outcome is impossible after it.
    spec0 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, math.pi / 2)
    spec1 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, 0.0)
    ev = eval_bayesian(spec0, spec1, InputSchedule.flat([1.0, 1.0, 1.0]))
    assert set(ev.povm_tree) == {(), (0,), (0, 0), (1,), (1, 1)}


def test_posteriors_in_unit_interval_for_perfect_discrimination(rng):
    # Bit-flip at eta 1 and 0 maps r = 1 to orthogonal outputs. A trace that
    # rounds past 1 there would leave 1 - t a negative weight.
    spec0 = ChannelSpec(ChannelFamily.BIT_FLIP, 1.0)
    spec1 = ChannelSpec(ChannelFamily.BIT_FLIP, 0.0)
    for _ in range(1000):
        r = rng.random(8)
        r[rng.random(8) < 0.3] = 1.0
        sched = InputSchedule.flat(r)
        for ev in (eval_bayesian(spec0, spec1, sched), eval_markovian(spec0, spec1, sched)):
            assert all(0.0 <= p <= 1.0 for p in ev.posteriors.values())
            if (r == 1.0).any():
                assert abs(ev.p_succ - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# Monte Carlo


def test_simulation_within_three_sigma():
    trials = 40000
    seed = 11
    for shots in (1, 2, 3):
        sched = InputSchedule.flat([0.3, 0.7, 0.5][:shots])
        for spec0, spec1 in ALL_PAIRS:
            for kind in StrategyKind:
                p = strategy_value(kind, spec0, spec1, sched)
                freq = simulate_protocol(kind, spec0, spec1, sched, trials, seed)
                assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / trials), (kind, shots)
                seed += 1


def test_simulation_deterministic():
    sched = InputSchedule.flat([0.3, 0.7])
    a = simulate_protocol("bayesian", *BF, sched, 5000, seed=3)
    b = simulate_protocol("bayesian", *BF, sched, 5000, seed=3)
    c = simulate_protocol("bayesian", *BF, sched, 5000, seed=4)
    assert a == b
    assert a != c


def test_simulation_perfect_discrimination():
    spec0 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, math.pi / 2)
    spec1 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, 0.0)
    # After the first of three shots the posterior is certain, and the
    # feedforward trees hold nodes that neither channel can reach.
    for r_values in ([1.0], [1.0, 1.0, 1.0]):
        sched = InputSchedule.flat(r_values)
        for kind in StrategyKind:
            assert simulate_protocol(kind, spec0, spec1, sched, 2000, seed=1) == 1.0, (kind, r_values)


def _split_counts(rng, kind, count, prob0):
    """One level of node counts: node i under channel c sends a binomial
    share at ``prob0(c, i)`` of its trials to child 2i (outcome 0) and the
    rest to 2i + 1; the Markovian kind merges the children by outcome. The
    draws go one per channel and node, channel outermost. A node that no
    trial reaches sends none and reads no probability; numpy's binomial
    takes no draw for n = 0 either, so the stream stays in step."""
    nxt = [[0] * (2 * len(count[0])) for _ in count]
    for c, row in enumerate(count):
        for i, n in enumerate(row):
            zero = rng.binomial(n, prob0(c, i)) if n else 0
            nxt[c][2 * i], nxt[c][2 * i + 1] = zero, n - zero
    if kind == "markovian":
        nxt = [[sum(row[0::2]), sum(row[1::2])] for row in nxt]
    return nxt


def _first_counts(rng, trials):
    first = rng.binomial(trials, 0.5)
    return [[first], [trials - first]]  # trials per channel and node


def _hit_frequency(count, trials):
    """Trials whose last outcome names their channel, as a frequency."""
    return (sum(count[0][0::2]) + sum(count[1][1::2])) / trials


def _tree_prob0(ev, kind, spec, sched, k, i):
    """Tr(rho pi0) under ``spec`` at node i of level k of an ``eval_*``
    tree; a node the tree does not hold raises KeyError."""
    if kind == "bayesian":
        key = tuple(int(b) for b in format(i, f"0{k}b")) if k else ()
    else:
        key = (k + 1, i if k else None)
    return outcome_probs(channel_matrix(spec, sched, k, i), ev.povm_tree[key])[0]


def sample_tree(kind, spec0, spec1, sched, trials, seed):
    """Success frequency sampled from the measurement tree of ``eval_*``.

    Takes the draws of :func:`simulate_protocol` in the same order: the
    trials under channel 0, then level by level one binomial per channel and
    node that some trial reaches, for the trials that see outcome 0, at
    Tr(rho pi0) of the node's measurement in the tree (clamped into [0, 1]).
    """
    ev = EVALUATORS[kind](spec0, spec1, sched)
    specs = (spec0, spec1)

    def prob0(k, c, i):
        return min(max(_tree_prob0(ev, kind, specs[c], sched, k, i), 0.0), 1.0)

    rng = np.random.default_rng(seed)
    count = _first_counts(rng, trials)
    for k in range(sched.shots):
        count = _split_counts(rng, kind, count, functools.partial(prob0, k))
    return _hit_frequency(count, trials)


@pytest.mark.parametrize("kind", ["bayesian", "markovian"])
@pytest.mark.parametrize("mode", ["flat", "adaptive"])
def test_simulation_samples_the_tree(rng, kind, mode):
    trials = 4000
    for spec0, spec1 in ALL_PAIRS:
        for shots in (1, 2, 4):
            d = sum(level_widths(kind, mode, shots))
            sched = schedule_of_row(kind, mode, shots, rng.random(d))
            seed = int(rng.integers(2**31))
            # Every node the walk reaches is in the tree, and its measurement
            # there gives the traces the simulator draws at.
            ev = EVALUATORS[kind](spec0, spec1, sched)
            for k, i, *_, t0, t1 in _walk(StrategyKind(kind), spec0, spec1, sched)[1]:
                got = [_tree_prob0(ev, kind, spec, sched, k, i) for spec in (spec0, spec1)]
                assert got == pytest.approx([t0, t1], rel=0.0, abs=1e-12), (k, i)
            # Seeded: a rounding-level difference between the tree's and the
            # walk's traces can move a binomial draw, by one trial at this
            # fixture seed (2539 vs 2538 for flat Bayesian depolarizing), but
            # by up to 44 at others. Counted in trials, since
            # 2539/4000 - 2538/4000 rounds past 1/4000.
            freq = simulate_protocol(kind, spec0, spec1, sched, trials, seed)
            gap = abs(freq - sample_tree(kind, spec0, spec1, sched, trials, seed))
            assert round(gap * trials) <= 1


def sample_indexed(kind, spec0, spec1, sched, trials, seed):
    """The simulator's draws, one binomial per channel and node, read from
    the walk's trace tables."""
    rng = np.random.default_rng(seed)
    count = _first_counts(rng, trials)
    if kind == "global":
        _, c0, c1 = _global_measurement(spec0, spec1, sched)
        hits = [rng.binomial(row[0], min(max(c, 0.0), 1.0)) for row, c in zip(count, (c0, c1))]
        return sum(hits) / trials
    bayes = kind == "bayesian"
    _, nodes = _walk(StrategyKind(kind), spec0, spec1, sched)
    tables = [np.full((2, 2**k if bayes else 2), 0.5) for k in range(sched.shots)]
    for k, i, *_, t0, t1 in nodes:
        tables[k][:, i] = t0, t1
    for table in tables:
        count = _split_counts(rng, kind, count, lambda c, i: table[c, i])
    return _hit_frequency(count, trials)


@pytest.mark.parametrize("kind,mode", [
    ("bayesian", "flat"),
    ("markovian", "adaptive"),
    ("global", "flat"),
])
def test_simulation_equals_indexed_sampler(rng, kind, mode):
    for spec0, spec1 in ALL_PAIRS:
        for shots in (1, 3, 5):
            d = sum(level_widths(kind, mode, shots))
            sched = schedule_of_row(kind, mode, shots, rng.random(d))
            for seed in (0, 1, 12345):
                freq = simulate_protocol(kind, spec0, spec1, sched, 3000, seed)
                assert freq == sample_indexed(kind, spec0, spec1, sched, 3000, seed)


def test_simulation_identical_channels_near_half():
    trials = 100000
    for kind, spec, r_values in (
        ("markovian", ChannelSpec(ChannelFamily.BIT_FLIP, 0.4), [0.2, 0.5]),
        # The collective measurement's trace c0 rounds to 1.0000000000000002
        # here, which a binomial draw rejects unless it is clamped.
        ("global", ChannelSpec(ChannelFamily.BIT_FLIP, 0.1), [0.1, 0.1]),
    ):
        freq = simulate_protocol(kind, spec, spec, InputSchedule.flat(r_values), trials, seed=9)
        assert abs(freq - 0.5) <= 4.0 * 0.5 / math.sqrt(trials), kind


def test_simulation_rejects_bad_trials():
    # A float would be truncated by the binomial draws: 2.5 trials run as 2.
    for trials in (0, 2.5, "100"):
        with pytest.raises(ValueError):
            simulate_protocol("markovian", *BF, InputSchedule.flat([0.5]), trials, seed=1)
    freq = simulate_protocol("markovian", *BF, InputSchedule.flat([0.5]), np.int64(100), seed=1)
    assert 0.0 <= freq <= 1.0


def test_simulation_takes_trials_up_to_a_c_long():
    # numpy draws from a C long: 2**63 trials overflowed inside the first draw.
    sched = InputSchedule.flat([0.3, 0.7])
    with pytest.raises(ValueError, match=r"^trials must be < 2\*\*63, got 9223372036854775808$"):
        simulate_protocol("bayesian", *BF, sched, 2**63, seed=1)
    freq = simulate_protocol("bayesian", *BF, sched, 2**63 - 1, seed=1)
    assert abs(freq - 0.5951228) <= 1e-7


@pytest.mark.parametrize("setting,value,refusal", [
    ("trials", True, "trials must be an integer, got True"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("seed", True, "seed must be an integer, got True"),
])
def test_simulation_refuses_trials_and_seeds_by_name(setting, value, refusal):
    # True ran one trial, and the bad seeds failed inside numpy's
    # SeedSequence without naming the seed; a seed may be of any size.
    args = {"trials": 10, "seed": 1, setting: value}
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        simulate_protocol("bayesian", *BF, InputSchedule.flat([0.3]), **args)
    assert 0.0 <= simulate_protocol("bayesian", *BF, InputSchedule.flat([0.3]), 10, 2**70) <= 1.0


@pytest.mark.parametrize("value,d_refusal,shots_refusal", [
    (True, "^d must be an integer, got True$", "^shots must be an integer, got True$"),
    (2.0, r"^d must be an integer, got 2\.0$", r"^shots must be an integer, got 2\.0$"),
    (0, "must be >= 1, got 0$", "^shots must be >= 1, got 0$"),  # a d of 0 was refused already
])
def test_dimensions_and_shot_counts_are_refused_by_name(value, d_refusal, shots_refusal):
    # maximize failed inside numpy on a d of True or 2.0; values_objective
    # took True as one shot, failed inside numpy on 2.0, and built an
    # objective of width 0 from 0 shots that refused every row.
    with pytest.raises(ValueError, match=d_refusal):
        maximize(lambda x: 0.0, value)
    with pytest.raises(ValueError, match=shots_refusal):
        values_objective(["markovian"], "bit-flip", [0.7], [0.3], value)


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_simulation_cost_does_not_grow_with_trials(kind):
    # Trial by trial this would take terabytes; by node counts it is instant.
    trials = 10**12
    sched = InputSchedule.flat([0.3, 0.7, 0.5])
    p = strategy_value(kind, *AD, sched)
    freq = simulate_protocol(kind, *AD, sched, trials, seed=5)
    assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_simulation_spread_is_binomial(kind):
    trials, seeds = 2000, 200
    sched = InputSchedule.flat([0.3, 0.7, 0.5])
    p = strategy_value(kind, *BF, sched)
    sigma = math.sqrt(p * (1.0 - p) / trials)
    freqs = np.array([simulate_protocol(kind, *BF, sched, trials, seed) for seed in range(seeds)])
    assert abs(freqs.mean() - p) <= 4.0 * sigma / math.sqrt(seeds)
    assert 0.8 * sigma <= freqs.std(ddof=1) <= 1.25 * sigma


# ---------------------------------------------------------------------------
# batched values


def objective_values(kind, family, eta0, eta1, r_rows, shots, mode="flat"):
    """The values of ``shots``-shot schedule rows, each row its own problem
    of one ``kind`` objective."""
    f = values_objective([kind] * len(r_rows), family, eta0, eta1, shots, mode)
    return f(np.arange(len(r_rows)), r_rows)


def random_rows(rng, kind, mode, shots, rows):
    """Schedule rows with boundary and subnormal r mixed in."""
    d = sum(level_widths(kind, mode, shots))
    r_rows = rng.uniform(0.0, 1.0, (rows, d))
    r_rows[0] = 0.0
    r_rows[1] = 1.0
    r_rows[2, 0] = 5e-322
    r_rows[3] = rng.choice([0.0, 1.0, 5e-322, 0.5], size=d)
    r_rows[4] = rng.choice([0.0, 1.0], size=d)
    return r_rows


def schedule_of_row(kind, mode, shots, row):
    if mode == "flat":
        return InputSchedule.flat(row)
    ends = np.cumsum(level_widths(kind, mode, shots))
    return InputSchedule.adaptive(np.split(row, ends[:-1]))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", ["bayesian", "markovian"])
@pytest.mark.parametrize("mode", ["flat", "adaptive"])
def test_batched_values_match_scalar(rng, family, kind, mode):
    hi = ETA_MAX[family]
    for shots in (1, 2, 3, 5, 8):
        pairs = [random_spec_pair(rng, family) for _ in range(12)]
        # eta at the ends of its range
        pairs[5] = ChannelSpec(family, hi), ChannelSpec(family, 0.0)
        pairs[6] = ChannelSpec(family, hi), pairs[6][1]
        pairs[7] = pairs[7][0], ChannelSpec(family, 0.0)
        eta0 = np.array([s0.eta for s0, _ in pairs])
        eta1 = np.array([s1.eta for _, s1 in pairs])
        r_rows = random_rows(rng, kind, mode, shots, len(pairs))
        with np.errstate(divide="raise", invalid="raise"):  # no 0/0 where h = 0
            got = objective_values(kind, family, eta0, eta1, r_rows, shots, mode)
        for (s0, s1), row, value in zip(pairs, r_rows, got):
            want = strategy_value(kind, s0, s1, schedule_of_row(kind, mode, shots, row))
            assert abs(value - want) <= 1e-14


def test_batched_global_loops_scalar(rng):
    s0, s1 = AD
    r_rows = rng.random((3, 3))
    got = objective_values("global", s0.family, [s0.eta] * 3, [s1.eta] * 3, r_rows, 3)
    assert list(got) == [global_value(s0, s1, InputSchedule.flat(r)) for r in r_rows]


def kraus_global_value(spec0, spec1, r_row):
    """Oracle: the collective value of output products built by Kraus maps."""
    prods = []
    for spec in (spec0, spec1):
        outs = [apply(spec, pure_state(InputState(float(r)))) for r in r_row]
        prods.append(functools.reduce(np.kron, outs))
    vals = np.linalg.eigvalsh(0.5 * (prods[0] - prods[1]))
    return 0.5 + float(vals[vals >= 0.0].sum())


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_global_rows_equal_global_value(rng, family):
    # Each stacked row is the one-row build and eigensolve of global_value,
    # over channel pairs that differ row by row.
    pairs = [random_spec_pair(rng, family) for _ in range(12)]
    eta0 = [s0.eta for s0, _ in pairs]
    eta1 = [s1.eta for _, s1 in pairs]
    for shots in range(1, 7):
        r_rows = random_rows(rng, "global", "flat", shots, len(pairs))
        got = objective_values("global", family, eta0, eta1, r_rows, shots)
        for (s0, s1), r, p in zip(pairs, r_rows, got):
            assert abs(p - global_value(s0, s1, InputSchedule.flat(r))) <= 1e-15
            assert abs(p - kraus_global_value(s0, s1, r)) <= 1e-12


# The corners where every output is diagonal, with the output's rho00 as a
# function of eta, from the channels' definitions.
CORNERS = [
    (ChannelFamily.BIT_FLIP, 0.0, lambda eta: 1.0 - eta),
    (ChannelFamily.BIT_FLIP, 1.0, lambda eta: eta),
    (ChannelFamily.AMPLITUDE_DAMPING, 1.0, lambda eta: math.sin(eta) ** 2),
    (ChannelFamily.DEPOLARIZING, 0.0, lambda eta: 1.0 - 0.5 * eta),
]


@pytest.mark.parametrize("family,r,rho00", CORNERS)
def test_global_value_at_a_corner_is_the_binomial_test(family, r, rho00):
    # n copies of a diagonal output: the collective measurement is the
    # likelihood-ratio test on the count of outcomes 0 (Calsamiglia et al.,
    # PRA 77, 032311 (2008)), so the value is 1/2 plus a quarter of the l1
    # distance of two binomial laws. No Kronecker product is built here.
    hi = ETA_MAX[family]
    for eta0, eta1 in ((0.75 * hi, 0.4 * hi), (0.95 * hi, 0.6 * hi), (0.6 * hi, 0.1 * hi)):
        q0, q1 = rho00(eta0), rho00(eta1)
        spec0, spec1 = ChannelSpec(family, eta0), ChannelSpec(family, eta1)
        for n in range(1, 9):
            want = 0.5 + 0.25 * sum(
                math.comb(n, k) * abs(q0**k * (1 - q0) ** (n - k) - q1**k * (1 - q1) ** (n - k))
                for k in range(n + 1)
            )
            sched = InputSchedule.flat([r] * n)
            stacked = objective_values("global", family, [eta0], [eta1], [[r] * n], n)[0]
            for got in (global_value(spec0, spec1, sched), eval_global(spec0, spec1, sched).p_succ,
                        stacked):
                assert abs(got - want) <= 1e-12, (eta0, eta1, n)


def test_stacked_global_chunks_change_no_value(rng, monkeypatch):
    family = ChannelFamily.BIT_FLIP
    pairs = [random_spec_pair(rng, family) for _ in range(9)]
    eta0 = [s0.eta for s0, _ in pairs]
    eta1 = [s1.eta for _, s1 in pairs]
    r_rows = random_rows(rng, "global", "flat", 4, len(pairs))
    whole = objective_values("global", family, eta0, eta1, r_rows, 4)
    # Two rows of 4 shots per chunk, then one.
    for cap in (2 * 2 * 8 * 4**4, 1):
        monkeypatch.setattr(strategies, "_GLOBAL_CHUNK_BYTES", cap)
        assert np.array_equal(objective_values("global", family, eta0, eta1, r_rows, 4), whole)


@pytest.mark.parametrize("kind,mode,shots", [
    ("markovian", "flat", 3),
    ("bayesian", "flat", 4),
    ("bayesian", "adaptive", 4),
    ("markovian", "adaptive", 5),
])
def test_batched_values_independent_of_batch(rng, kind, mode, shots):
    family = ChannelFamily.AMPLITUDE_DAMPING
    pairs = [random_spec_pair(rng, family) for _ in range(40)]
    eta0 = np.array([s0.eta for s0, _ in pairs])
    eta1 = np.array([s1.eta for _, s1 in pairs])
    r_rows = random_rows(rng, kind, mode, shots, len(pairs))
    full = objective_values(kind, family, eta0, eta1, r_rows, shots, mode)
    perm = rng.permutation(len(pairs))
    shuffled = objective_values(kind, family, eta0[perm], eta1[perm], r_rows[perm], shots, mode)
    assert np.array_equal(shuffled, full[perm])
    for i in (0, 3, 17):
        one = slice(i, i + 1)
        alone = objective_values(kind, family, eta0[one], eta1[one], r_rows[one], shots, mode)
        assert alone[0] == full[i]


def test_batched_values_validation():
    family = ChannelFamily.BIT_FLIP
    with pytest.raises(ScheduleError):
        objective_values("bayesian", family, [0.7], [0.3], [[0.5, 1.5]], 2)
    with pytest.raises(ScheduleError):  # 2 adaptive shots take 1 + 2 values
        objective_values("bayesian", family, [0.7], [0.3], [[0.5, 0.5]], 2, "adaptive")
    with pytest.raises(ScheduleError):
        objective_values("markovian", family, [0.7], [0.3], [[0.5, 0.5]], 2, "adaptive")
    with pytest.raises(ScheduleError):
        objective_values("global", family, [0.7], [0.3], [[0.5, 0.5, 0.5]], 3, "adaptive")
    with pytest.raises(ScheduleError):
        objective_values("markovian", family, [0.7, 0.6], [0.3], [[0.5]], 1)
    with pytest.raises(ValueError):
        objective_values("markovian", family, [1.7], [0.3], [[0.5]], 1)
    shots = SHOT_CAP[StrategyKind.BAYESIAN] + 1
    with pytest.raises(ValueError):
        objective_values("bayesian", family, [0.7], [0.3], np.full((1, shots), 0.5), shots)
    assert objective_values("markovian", family, [], [], np.empty((0, 2)), 2).shape == (0,)


@pytest.mark.parametrize("kind,mode,shots,d", [
    ("markovian", "flat", 2, 2),
    ("bayesian", "adaptive", 3, 7),
    ("markovian", "adaptive", 3, 5),
    ("global", "flat", 2, 2),
])
def test_objective_refuses_rows_of_another_width(kind, mode, shots, d, monkeypatch):
    # A row one value too wide or too narrow for the layout is refused
    # before any output is built, not scored as a schedule of other shots.
    def never(*args):
        raise AssertionError("an output was built")

    monkeypatch.setattr(strategies, "_entries", never)
    f = values_objective([kind], "bit-flip", [0.7], [0.3], shots, mode)
    for width in (d + 1, d - 1):
        want = rf"expected \(rows, {d}\) schedules, got \(1, {width}\)"
        with pytest.raises(ScheduleError, match=want):
            f(np.array([0]), np.full((1, width), 0.5))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode,shots", [("flat", 3), ("flat", 5), ("adaptive", 2)])
def test_objective_mixes_kinds_bit_for_bit(rng, family, mode, shots):
    # Bayesian and Markovian problems in one objective, rows shuffled: every
    # row equals its single-kind value exactly, in mixed, all-Bayesian and
    # all-Markovian calls alike.
    pairs = [random_spec_pair(rng, family) for _ in range(12)]
    eta0 = np.array([s0.eta for s0, _ in pairs])
    eta1 = np.array([s1.eta for _, s1 in pairs])
    kinds = rng.permutation(["bayesian", "markovian"] * 6)
    f = values_objective(kinds, family, eta0, eta1, shots, mode)
    everyone = np.arange(12)
    for subset in (everyone, everyone[kinds == "bayesian"], everyone[kinds == "markovian"]):
        problem = rng.permutation(np.repeat(subset, 3))
        r_rows = random_rows(rng, "bayesian", mode, shots, len(problem))
        got = f(problem, r_rows)
        for kind in set(kinds[problem]):
            mine = kinds[problem] == kind
            j = problem[mine]
            alone = objective_values(kind, family, eta0[j], eta1[j], r_rows[mine], shots, mode)
            assert np.array_equal(got[mine], alone)


def test_objective_validation():
    family = ChannelFamily.BIT_FLIP
    with pytest.raises(ScheduleError):
        values_objective(["global", "bayesian"], family, [0.7, 0.7], [0.3, 0.3], 3)
    with pytest.raises(ScheduleError):  # 3 adaptive shots: 1 + 2 + 4 against 1 + 2 + 2 values
        values_objective(["bayesian", "markovian"], family, [0.7, 0.7], [0.3, 0.3], 3, "adaptive")
    with pytest.raises(ValueError):
        values_objective(["markovian", "markovian"], family, [0.7, 1.3], [0.3, 0.3], 2)
    f = values_objective(["bayesian", "markovian"], family, [0.7, 0.7], [0.3, 0.3], 2)
    with pytest.raises(ScheduleError):
        f(np.array([0, 1]), [[0.5, 0.5], [0.5, -0.1]])
