import numpy as np
import pytest

from conftest import random_density
from qcdisc.helstrom import (
    PovmCase,
    WeightedPair,
    brute_force_povm,
    delta_op,
    optimal_povm,
    outcome_probs,
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
    s0 = (0.6, 0.4, 0.0j)
    s1 = (0.4, 0.6, 0.0j)
    case, p_succ, t0, t1, lam0, _, v0 = success_and_traces(0.4, s0, s1)
    assert lam0 == 0.0
    assert case is PovmCase.PROJECTIVE
    assert abs(p_succ - 0.6) < 1e-15
    assert (t0, t1) == (0.6, 0.4)
    # a rounding residue below zero is a tie too
    case, *_ = success_and_traces(0.4, (0.6, 0.4 + 1e-17, 0.0j), s1)
    assert case is PovmCase.PROJECTIVE


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
        _, u1 = outcome_probs(w.rho1, res.povm)
        assert abs(res.p_succ - (w.p0 * t0 + (1 - w.p0) * u1)) < 1e-12


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
