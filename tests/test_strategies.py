import itertools
import math

import numpy as np
import pytest

from conftest import FAMILIES, random_spec_pair
from qcdisc.channels import ChannelFamily, ChannelSpec, InputState, apply, output_entries, pure_state
from qcdisc.helstrom import WeightedPair, optimal_povm, outcome_probs
from qcdisc.linalg import eigen_hermitian, tensor
from qcdisc.strategies import (
    BAYES_SHOT_CAP,
    GLOBAL_SHOT_CAP,
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
    values,
)

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
    s = output_entries(spec, r, sched.phi)
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
        eval_global(*BF, InputSchedule.flat([0.5] * (GLOBAL_SHOT_CAP + 1)))
    with pytest.raises(ValueError):
        eval_bayesian(*BF, InputSchedule.flat([0.5] * (BAYES_SHOT_CAP + 1)))
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
    # Rebuild the collective measurement from the package's own Jacobi
    # eigensolver and compare success probabilities.
    for spec0, spec1 in ALL_PAIRS:
        sched = InputSchedule.flat(rng.random(3))
        prod0 = channel_matrix(spec0, sched, 0)
        prod1 = channel_matrix(spec1, sched, 0)
        for k in (1, 2):
            prod0 = tensor(prod0, channel_matrix(spec0, sched, k))
            prod1 = tensor(prod1, channel_matrix(spec1, sched, k))
        eig = eigen_hermitian(0.5 * (prod0 - prod1))
        kept = eig.eigenvectors[:, eig.eigenvalues >= 0]
        pi0 = kept @ kept.conj().T
        pi1 = np.eye(8) - pi0
        p_ref = 0.5 * float((np.trace(prod0 @ pi0) + np.trace(prod1 @ pi1)).real)
        assert abs(eval_global(spec0, spec1, sched).p_succ - p_ref) <= 1e-12


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


def sample_tree(kind, spec0, spec1, sched, trials, seed):
    """Success frequency sampled from the measurement tree of ``eval_*``.

    Takes the draws of :func:`simulate_protocol` in the same order: the true
    channel of every trial, then one uniform per trial and shot, read as
    outcome 0 when it falls below Tr(rho pi0) of the node reached.
    """
    ev = EVALUATORS[kind](spec0, spec1, sched)
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=trials)
    hist = np.zeros(trials, dtype=np.int64)  # outcomes so far, in binary
    for k in range(sched.shots):
        draw = rng.random(trials)
        p0out = np.empty(trials)
        for h in np.unique(hist):
            bits = tuple(int(b) for b in format(h, f"0{k}b")) if k else ()
            if kind == "bayesian":
                key, node = bits, h
            else:
                key, node = (k + 1, bits[-1] if k else None), (bits[-1] if k else 0)
            for c, spec in enumerate((spec0, spec1)):
                rho = channel_matrix(spec, sched, k, node)
                p0out[(hist == h) & (truth == c)] = outcome_probs(rho, ev.povm_tree[key])[0]
        hist = (hist << 1) | (draw >= p0out)
    return float(((hist & 1) == truth).mean())


@pytest.mark.parametrize("kind", ["bayesian", "markovian"])
@pytest.mark.parametrize("mode", ["flat", "adaptive"])
def test_simulation_samples_the_tree(rng, kind, mode):
    trials = 4000
    for spec0, spec1 in ALL_PAIRS:
        for shots in (1, 2, 4):
            d = shots if mode == "flat" else (2**shots - 1 if kind == "bayesian" else 2 * shots - 1)
            sched = schedule_of_row(kind, mode, rng.random(d))
            seed = int(rng.integers(2**31))
            freq = simulate_protocol(kind, spec0, spec1, sched, trials, seed)
            assert abs(freq - sample_tree(kind, spec0, spec1, sched, trials, seed)) <= 1.0 / trials


def test_simulation_identical_channels_near_half():
    spec = ChannelSpec(ChannelFamily.BIT_FLIP, 0.4)
    trials = 100000
    freq = simulate_protocol("markovian", spec, spec, InputSchedule.flat([0.2, 0.5]), trials, seed=9)
    assert abs(freq - 0.5) <= 3.0 / math.sqrt(trials)


def test_simulation_rejects_bad_trials():
    with pytest.raises(ValueError):
        simulate_protocol("markovian", *BF, InputSchedule.flat([0.5]), 0, seed=1)


# ---------------------------------------------------------------------------
# batched values


def random_rows(rng, kind, mode, shots, rows):
    """Schedule rows for ``values`` with boundary and subnormal r mixed in."""
    if mode == "flat":
        d = shots
    else:
        d = 2**shots - 1 if kind == "bayesian" else 2 * shots - 1
    r_rows = rng.uniform(0.0, 1.0, (rows, d))
    r_rows[0] = 0.0
    r_rows[1] = 1.0
    r_rows[2, 0] = 5e-322
    r_rows[3] = rng.choice([0.0, 1.0, 5e-322, 0.5], size=d)
    return r_rows


def schedule_of_row(kind, mode, row):
    if mode == "flat":
        return InputSchedule.flat(row)
    levels, start, k = [], 0, 0
    while start < len(row):
        width = 2**k if kind == "bayesian" else min(2**k, 2)
        levels.append(row[start : start + width])
        start += width
        k += 1
    return InputSchedule.adaptive(levels)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", ["bayesian", "markovian"])
@pytest.mark.parametrize("mode", ["flat", "adaptive"])
def test_batched_values_match_scalar(rng, family, kind, mode):
    for shots in (1, 2, 3, 5):
        pairs = [random_spec_pair(rng, family) for _ in range(12)]
        eta0 = np.array([s0.eta for s0, _ in pairs])
        eta1 = np.array([s1.eta for _, s1 in pairs])
        r_rows = random_rows(rng, kind, mode, shots, len(pairs))
        got = values(kind, family, eta0, eta1, r_rows, mode)
        for (s0, s1), row, value in zip(pairs, r_rows, got):
            want = strategy_value(kind, s0, s1, schedule_of_row(kind, mode, row))
            assert abs(value - want) <= 1e-14


def test_batched_global_loops_scalar(rng):
    s0, s1 = AD
    r_rows = rng.random((3, 3))
    got = values("global", s0.family, [s0.eta] * 3, [s1.eta] * 3, r_rows)
    assert list(got) == [global_value(s0, s1, InputSchedule.flat(r)) for r in r_rows]


@pytest.mark.parametrize("kind,mode,shots", [
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
    full = values(kind, family, eta0, eta1, r_rows, mode)
    perm = rng.permutation(len(pairs))
    shuffled = values(kind, family, eta0[perm], eta1[perm], r_rows[perm], mode)
    assert np.array_equal(shuffled, full[perm])
    for i in (0, 3, 17):
        alone = values(kind, family, eta0[i : i + 1], eta1[i : i + 1], r_rows[i : i + 1], mode)
        assert alone[0] == full[i]


def test_batched_values_validation():
    family = ChannelFamily.BIT_FLIP
    with pytest.raises(ScheduleError):
        values("bayesian", family, [0.7], [0.3], [[0.5, 1.5]])
    with pytest.raises(ScheduleError):
        values("bayesian", family, [0.7], [0.3], [[0.5, 0.5]], "adaptive")  # 2 fits no shot count
    with pytest.raises(ScheduleError):
        values("markovian", family, [0.7], [0.3], [[0.5, 0.5]], "adaptive")
    with pytest.raises(ScheduleError):
        values("global", family, [0.7], [0.3], [[0.5, 0.5, 0.5]], "adaptive")
    with pytest.raises(ScheduleError):
        values("markovian", family, [0.7, 0.6], [0.3], [[0.5]])
    with pytest.raises(ValueError):
        values("markovian", family, [1.7], [0.3], [[0.5]])
    with pytest.raises(ValueError):
        values("bayesian", family, [0.7], [0.3], np.full((1, BAYES_SHOT_CAP + 1), 0.5))
    assert values("markovian", family, [], [], np.empty((0, 2))).shape == (0,)
