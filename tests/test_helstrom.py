import math

import numpy as np
import pytest

from conftest import FAMILIES, random_density, random_spec_pair
from oracles import delta_op, outcome_probs
import qcdisc.helstrom as helstrom
from qcdisc.channels import ChannelFamily, ChannelSpec, output_entries
from qcdisc.helstrom import (
    TIE_TOL,
    PovmCase,
    WeightedPair,
    _shot_batch,
    brute_force_povm,
    optimal_povm,
    povm_defect,
    success_and_traces,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
MIXED = 0.5 * np.eye(2, dtype=complex)


def test_delta_identical_states_cancel():
    np.testing.assert_allclose(delta_op(WeightedPair(0.5, MIXED, MIXED)), 0, atol=0)


def test_delta_orthogonal_pure():
    np.testing.assert_allclose(
        delta_op(WeightedPair(0.5, KET0, KET1)), np.diag([0.5, -0.5]), atol=0
    )


def test_delta_trace_identity(rng):
    for _ in range(10):
        w = WeightedPair(0.7, random_density(rng), random_density(rng))
        assert abs(np.trace(delta_op(w)).real - 0.4) < 1e-12


@pytest.mark.parametrize("rho,condition", [
    (np.eye(3) / 3, "2x2"),
    ([[1, 1], [0, 0]], "Hermitian"),
    (np.diag([4.0, 1.0]), "unit trace"),
    (np.diag([1.5, -0.5]), "positive semidefinite"),
    ([[0.6, math.nan], [math.nan, 0.4]], "finite entries"),
    (np.full((2, 2), math.nan), "finite entries"),
    ([[math.inf, 0.0], [0.0, 0.4]], "finite entries"),
])
@pytest.mark.filterwarnings("error")
def test_weighted_pair_refuses_what_is_no_state(rho, condition):
    # [[1, 1], [0, 0]] is not Hermitian; read as a state, it gives a p_succ
    # above 1. NaN fails every bound test, so a NaN state passed as one and
    # gave p_succ 0.5; an infinite entry was refused only after a numpy warning.
    for name, pair in (("rho0", (rho, MIXED)), ("rho1", (MIXED, rho))):
        with pytest.raises(ValueError, match=f"^{name} must .*{condition}"):
            WeightedPair(0.5, *pair)


def test_weighted_pair_takes_states_within_tolerance():
    off = 1e-12 * np.array([[1.0, 1j], [0.0, -2.0]])
    res = optimal_povm(WeightedPair(0.5, KET0 + off, [[0, 0], [0, 1]]))
    assert abs(res.p_succ - 1.0) < 1e-11


def test_projective_case_orthogonal_states():
    res = optimal_povm(WeightedPair(0.5, KET0, KET1))
    assert res.povm.case_tag is PovmCase.PROJECTIVE
    assert abs(res.p_succ - 1.0) < 1e-14


def test_always_guess_0_case():
    # lam0 = 0.4 but 2 p0 = 1.8 > 1.4: measuring cannot beat guessing.
    res = optimal_povm(WeightedPair(0.9, MIXED, MIXED))
    assert res.povm.case_tag is PovmCase.ALWAYS_GUESS_0
    assert abs(res.p_succ - 0.9) < 1e-14
    assert abs(res.lambda0 - 0.4) < 1e-14
    np.testing.assert_allclose(res.povm.pi0, np.eye(2), atol=0)


def test_always_guess_1_case():
    res = optimal_povm(WeightedPair(0.1, MIXED, MIXED))
    assert res.povm.case_tag is PovmCase.ALWAYS_GUESS_1
    assert abs(res.p_succ - 0.9) < 1e-14
    assert abs(res.lambda0 + 0.4) < 1e-14
    np.testing.assert_allclose(res.povm.pi0, np.zeros((2, 2)), atol=0)


def test_degenerate_boundary_is_a_fair_coin():
    res = optimal_povm(WeightedPair(0.5, MIXED, MIXED))
    assert res.povm.case_tag is PovmCase.ALWAYS_GUESS_1
    assert abs(res.p_succ - 0.5) < 1e-14


def test_exact_tie_keeps_the_projector():
    # p0 rho0 - p1 rho1 = diag(0, -0.2): lam0 is exactly 0, so measuring and
    # always guessing 1 tie at 0.6; only the measurement informs later shots.
    s0 = (0.6, 0.4, 0.0)
    s1 = (0.4, 0.6, 0.0)
    case, p_succ, t0, t1, lam0, _, _ = success_and_traces(0.4, 0.6, s0, s1)
    assert lam0 == 0.0
    assert case is PovmCase.PROJECTIVE
    assert abs(p_succ - 0.6) < 1e-15
    assert (t0, t1) == (0.6, 0.4)
    # a rounding residue below zero is a tie too
    case, *_ = success_and_traces(0.4, 0.6, (0.6, 0.4 + 1e-17, 0.0), s1)
    assert case is PovmCase.PROJECTIVE


def test_mirror_tie_keeps_the_projector():
    # Bit-flip outputs of r = 0.9 at eta 6/7 and 1/7, weighted 6/7 : 1/7.
    # lam1 = g - h is exactly 0 and rounds to +5.6e-17, strictly inside the
    # tie band: measuring and always guessing 0 tie at w0, and only the
    # measurement informs later shots.
    s0 = output_entries(ChannelSpec(ChannelFamily.BIT_FLIP, 6 / 7), 0.9)
    s1 = output_entries(ChannelSpec(ChannelFamily.BIT_FLIP, 1 / 7), 0.9)
    p0 = 6 / 7
    case, p_succ, _, _, _, lam1, _ = success_and_traces(p0, 1.0 - p0, s0, s1)
    assert 0.0 < lam1 <= TIE_TOL
    assert case is PovmCase.PROJECTIVE
    assert abs(p_succ - p0) < 1e-15
    # with w0 one ulp higher the residue vanishes: an exact tie
    w0 = math.nextafter(p0, 1.0)
    case, p_succ, _, _, _, lam1, _ = success_and_traces(w0, 1.0 - p0, s0, s1)
    assert lam1 == 0.0
    assert case is PovmCase.PROJECTIVE
    assert abs(p_succ - w0) < 1e-15
    # off the tie, with both eigenvalues clearly positive, it guesses 0
    case, p_succ, *_ = success_and_traces(0.9, 0.1, s0, s1)
    assert case is PovmCase.ALWAYS_GUESS_0
    assert p_succ == 0.9


def _kernel_cases(rng):
    """(w0, w1, s0, s1) at the exact branches and ties of the one-shot rule,
    then at random channel outputs and weights, all with float
    off-diagonals."""
    bit_flip = ChannelFamily.BIT_FLIP
    cases = [
        # c = 0 with the top eigenvector e0 and e1, and a vanishing operator
        (0.5, (0.7, 0.3, 0.0), (0.2, 0.8, 0.0)),
        (0.5, (0.2, 0.8, 0.0), (0.7, 0.3, 0.0)),
        (0.5, (0.5, 0.5, 0.0), (0.5, 0.5, 0.0)),
        # hd = c = 0 at a nonzero operator, within TIE_TOL of p0 = 1/2: the
        # projector is kept and both kernels take e0, t = rho00 (not rho11)
        (0.5 + 2.0**-43, (0.30319482929173447, 0.6968051707082655, 0.0),
         (0.303194829291645, 0.696805170708355, 0.0)),
        # hd = 0 in exact arithmetic but a rounding residue, within TIE_TOL
        # of p0 = 1/2 with states 3e-13 apart: the kernels once took
        # opposite projectors here, their traces 0.42 apart
        (0.5000000000003, (0.7116694106067056, 0.28833058939329437, 0.0),
         (0.7116694106069597, 0.28833058939304035, 0.0)),
        # c = 0 and a subnormal c
        (0.3, (0.7, 0.3, 0.0), (0.2, 0.8, 0.0)),
        (0.3, (0.7, 0.3, 5e-322), (0.2, 0.8, -5e-322)),
        # lam0 = 0: the projector ties with always guessing 1
        (0.4, (0.6, 0.4, 0.0), (0.4, 0.6, 0.0)),
        # lam1 = 0: the projector ties with always guessing 0, exactly and
        # with a rounding residue
        (0.6, (0.6, 0.4, 0.0), (0.4, 0.6, 0.0)),
        (6 / 7, output_entries(ChannelSpec(bit_flip, 6 / 7), 0.9),
         output_entries(ChannelSpec(bit_flip, 1 / 7), 0.9)),
    ]
    cases = [(p0, 1.0 - p0, s0, s1) for p0, s0, s1 in cases]
    for _ in range(400):
        spec0, spec1 = random_spec_pair(rng, FAMILIES[rng.integers(0, 3)])
        r = float(rng.choice([rng.random(), 0.0, 1.0, 5e-322]))
        p0 = float(rng.choice([rng.random(), 0.0, 0.5, 1.0]))
        # the weight of a node some shots deep, or a posterior
        scale = float(rng.choice([1.0, rng.random() * 2.0 ** -rng.integers(0, 20)]))
        s0, s1 = output_entries(spec0, r), output_entries(spec1, r)
        cases.append((scale * p0, scale * (1.0 - p0), s0, s1))
    return cases


def test_optimal_povm_is_phase_covariant(rng):
    # D = diag(1, e^{i theta}) on both states changes no success probability,
    # and the optimal measurement follows it: pi0 becomes D pi0 D^+. The
    # real kernel sees both pairs rotated to the same real coherence.
    pairs = [(0.5, KET0, KET1), (0.5, MIXED, MIXED), (0.3, MIXED, KET1)]
    for _ in range(400):
        pairs.append((float(rng.random()), random_density(rng), random_density(rng)))
    for p0, rho0, rho1 in pairs:
        d = np.diag([1.0, np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))])
        res = optimal_povm(WeightedPair(p0, rho0, rho1))
        turned = optimal_povm(WeightedPair(p0, d @ rho0 @ d.conj().T, d @ rho1 @ d.conj().T))
        assert turned.povm.case_tag is res.povm.case_tag
        assert abs(turned.p_succ - res.p_succ) <= 1e-13
        assert abs(turned.lambda0 - res.lambda0) <= 1e-13
        assert abs(turned.lambda1 - res.lambda1) <= 1e-13
        want = d @ res.povm.pi0 @ d.conj().T
        np.testing.assert_allclose(turned.povm.pi0, want, rtol=0, atol=1e-13)


def _batched(monkeypatch, cases, last):
    """``_shot_batch`` at the cases, one column each, and its projective
    mask, read from the ``np.where`` that picks each node's result."""
    w = np.array([[w0 for w0, *_ in cases], [w1 for _, w1, *_ in cases]])
    s = np.array([[s0 for *_, s0, _ in cases], [s1 for *_, s1 in cases]])
    masks = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        def where(self, cond, a, b):
            masks.append(cond)
            return np.where(cond, a, b)

    with monkeypatch.context() as m:
        m.setattr(helstrom, "np", Spy())
        out = _shot_batch(w, 0.5 * (s[:, :, 0] - s[:, :, 1]), s[:, :, 2], last)
    (projective,) = masks
    return out, projective


def test_scalar_and_batched_kernels_agree(rng, monkeypatch):
    # success_and_traces and its array twin _shot_batch, one column per
    # case: the same projector or trivial choice, traces and last-shot
    # success to 1e-15. Not bit for bit: math.hypot and np.hypot may
    # differ by an ulp.
    cases = _kernel_cases(rng)
    traces, projective = _batched(monkeypatch, cases, False)
    success, projective_last = _batched(monkeypatch, cases, True)
    assert np.array_equal(projective, projective_last)
    for j, (w0, w1, s0, s1) in enumerate(cases):
        case, p_succ, t0, t1, *_ = success_and_traces(w0, w1, s0, s1)
        assert projective[j] == (case is PovmCase.PROJECTIVE), j
        if case is PovmCase.PROJECTIVE:
            assert abs(traces[0, j] - t0) <= 1e-15 and abs(traces[1, j] - t1) <= 1e-15, j
        else:
            # the trivial POVM's traces, exactly
            assert (traces[0, j], traces[1, j]) == (t0, t1), j
        assert abs(success[j] - p_succ) <= 1e-15, j


def test_lambda_trace_identity(rng):
    for _ in range(50):
        w = WeightedPair(float(rng.random()), random_density(rng), random_density(rng))
        res = optimal_povm(w)
        assert abs(res.lambda0 + res.lambda1 - (2 * w.p0 - 1)) < 1e-12
        assert res.lambda0 >= res.lambda1


def test_never_worse_than_guessing(rng):
    for _ in range(100):
        w = WeightedPair(float(rng.random()), random_density(rng), random_density(rng))
        assert optimal_povm(w).p_succ >= max(w.p0, 1 - w.p0) - 1e-12


def test_povm_is_valid(rng):
    for _ in range(50):
        w = WeightedPair(float(rng.random()), random_density(rng), random_density(rng))
        assert povm_defect(optimal_povm(w).povm) <= 1e-10


def test_success_consistent_with_traces(rng):
    for _ in range(50):
        w = WeightedPair(float(rng.random()), random_density(rng), random_density(rng))
        res = optimal_povm(w)
        t0, _ = outcome_probs(w.rho0, res.povm)
        t1, u1 = outcome_probs(w.rho1, res.povm)
        assert abs(res.p_succ - (w.p0 * t0 + (1 - w.p0) * u1)) < 1e-12
        # the kernel's own traces, at the entries rotated by the phase u
        # that makes the weighted coherence real
        dc = w.p0 * w.rho0[0, 1] - (1.0 - w.p0) * w.rho1[0, 1]
        u = dc.conjugate() / abs(dc)
        entries = [(r[0, 0].real, r[1, 1].real, (u * r[0, 1]).real) for r in (w.rho0, w.rho1)]
        _, _, k0, k1, *_ = success_and_traces(w.p0, 1.0 - w.p0, *entries)
        assert abs(k0 - t0) < 1e-12 and abs(k1 - t1) < 1e-12


def test_equal_priors_trace_norm_formula(rng):
    # In the projective case at p0 = 1/2 the success equals (1 + tr|Delta|)/2.
    for _ in range(30):
        w = WeightedPair(0.5, random_density(rng), random_density(rng))
        res = optimal_povm(w)
        if res.povm.case_tag is PovmCase.PROJECTIVE:
            trace_norm = np.abs(np.linalg.eigvalsh(delta_op(w))).sum()
            assert abs(res.p_succ - 0.5 * (1 + trace_norm)) < 1e-12


def test_swap_symmetry(rng):
    for _ in range(30):
        p0 = float(rng.random())
        rho0, rho1 = random_density(rng), random_density(rng)
        p_direct = optimal_povm(WeightedPair(p0, rho0, rho1)).p_succ
        p_swapped = optimal_povm(WeightedPair(1 - p0, rho1, rho0)).p_succ
        assert abs(p_direct - p_swapped) < 1e-12


def test_outcome_probs_basics(rng):
    povm = optimal_povm(WeightedPair(0.5, KET0, KET1)).povm
    assert outcome_probs(KET0, povm) == (1.0, 0.0)
    q0, q1 = outcome_probs(MIXED, povm)
    assert abs(q0 - 0.5) < 1e-14 and abs(q1 - 0.5) < 1e-14
    rho = random_density(rng)
    full = optimal_povm(WeightedPair(0.9, MIXED, MIXED)).povm  # pi0 = I
    q0, q1 = outcome_probs(rho, full)
    assert abs(q0 - 1.0) < 1e-12 and abs(q1) < 1e-12


def test_brute_force_trivial_pairs():
    assert abs(brute_force_povm(WeightedPair(0.5, MIXED, MIXED), 64) - 0.5) < 1e-14
    assert abs(brute_force_povm(WeightedPair(0.8, MIXED, MIXED), 64) - 0.8) < 1e-14


def test_brute_force_rejects_coarse_grid():
    with pytest.raises(ValueError):
        brute_force_povm(WeightedPair(0.5, KET0, KET1), 32)


def test_brute_force_brackets_optimum(rng):
    # The grid search can only miss by its resolution, never exceed.
    for _ in range(200):
        w = WeightedPair(float(rng.random()), random_density(rng), random_density(rng))
        gap = optimal_povm(w).p_succ - brute_force_povm(w, 128)
        assert -1e-9 <= gap <= 1e-3
