import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILIES, random_density, random_spec_pair
from oracles import (
    InputState,
    apply,
    check_density_matrix,
    kraus_completeness,
    kraus_operators,
    outcome_probs,
    pure_state,
)
from qcdisc.channels import ETA_MAX, ChannelFamily, ChannelSpec, _entries, output_entries
from qcdisc.helstrom import WeightedPair, optimal_povm
from qcdisc.strategies import InputSchedule, ScheduleError, global_value, values_objective

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def test_pure_state_poles():
    np.testing.assert_allclose(pure_state(InputState(0.0)), KET0, atol=0)
    np.testing.assert_allclose(pure_state(InputState(1.0)), KET1, atol=0)


def test_pure_state_balanced():
    rho = pure_state(InputState(0.5))
    np.testing.assert_allclose(rho, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_pure_state_phase():
    rho = pure_state(InputState(0.5, math.pi / 2))
    assert abs(rho[0, 1] - 0.5j) < 1e-15
    assert abs(rho[1, 0] + 0.5j) < 1e-15


@pytest.mark.parametrize("r,phi", [(-0.1, 0.0), (1.1, 0.0), (0.5, -0.1), (0.5, 2 * math.pi)])
def test_input_state_validation(r, phi):
    with pytest.raises(ValueError):
        InputState(r, phi)


def test_eta_range_validation():
    with pytest.raises(ValueError):
        ChannelSpec(ChannelFamily.DEPOLARIZING, 1.01)
    with pytest.raises(ValueError):
        ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, math.pi / 2 + 0.01)
    ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, 1.2)  # valid: above 1, below pi/2


def test_range_checks_name_the_bad_value():
    # One eta check serves a spec and the batched objective, one r check a
    # schedule and the objective's rows.
    with pytest.raises(ValueError, match="eta=1.01 out of range"):
        ChannelSpec(ChannelFamily.BIT_FLIP, 1.01)
    with pytest.raises(ValueError, match="eta=nan out of range"):
        ChannelSpec(ChannelFamily.BIT_FLIP, math.nan)
    with pytest.raises(ValueError, match="eta=-0.5 out of range"):
        values_objective(["markovian"] * 2, "bit-flip", [0.7, 0.6], [0.3, -0.5], 1)
    with pytest.raises(ScheduleError, match="got 1.5"):
        InputSchedule.flat([0.5, 1.5])
    with pytest.raises(ScheduleError, match="got -0.25"):
        InputSchedule.adaptive([(0.5,), (0.2, -0.25)])
    f = values_objective(["markovian"], "bit-flip", [0.7], [0.3], 2)
    with pytest.raises(ScheduleError, match="got nan"):
        f(np.array([0]), np.array([[0.5, math.nan]]))


def test_depolarizing_full_noise(rng):
    spec = ChannelSpec(ChannelFamily.DEPOLARIZING, 1.0)
    out = apply(spec, random_density(rng))
    np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=1e-12)


def test_bit_flip_full_flip():
    spec = ChannelSpec(ChannelFamily.BIT_FLIP, 1.0)
    np.testing.assert_allclose(apply(spec, KET0), KET1, atol=1e-12)


def test_amplitude_damping_full_decay():
    spec = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, math.pi / 2)
    np.testing.assert_allclose(apply(spec, KET1), KET0, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_identity_at_zero_eta(family, rng):
    spec = ChannelSpec(family, 0.0)
    rho = random_density(rng)
    np.testing.assert_allclose(apply(spec, rho), rho, atol=1e-12)


@pytest.mark.parametrize(
    "family,eta",
    [
        (ChannelFamily.BIT_FLIP, 0.3),
        (ChannelFamily.AMPLITUDE_DAMPING, 1.1),
        (ChannelFamily.DEPOLARIZING, 0.7),
    ],
)
def test_kraus_completeness(family, eta):
    assert kraus_completeness(ChannelSpec(family, eta)) <= 1e-12


def test_depolarizing_map_equals_kraus(rng):
    spec = ChannelSpec(ChannelFamily.DEPOLARIZING, 0.45)
    for _ in range(5):
        rho = random_density(rng)
        explicit = sum(k @ rho @ k.conj().T for k in kraus_operators(spec))
        np.testing.assert_allclose(apply(spec, rho), explicit, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    fam_idx=st.integers(0, 2),
    eta_frac=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
def test_apply_preserves_trace_and_positivity(fam_idx, eta_frac, r, phi):
    family = FAMILIES[fam_idx]
    spec = ChannelSpec(family, eta_frac * ETA_MAX[family])
    out = apply(spec, pure_state(InputState(r, phi)))
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert abs(np.trace(out).imag) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-10


@pytest.mark.parametrize(
    "family", [ChannelFamily.BIT_FLIP, ChannelFamily.AMPLITUDE_DAMPING]
)
def test_in_plane_states_stay_in_plane(family):
    for eta_frac in (0.1, 0.5, 0.9):
        spec = ChannelSpec(family, eta_frac * ETA_MAX[family])
        for r in (0.0, 0.25, 0.8):
            out = apply(spec, pure_state(InputState(r, 0.0)))
            assert abs(out[0, 1].imag) <= 1e-12


def test_output_entries_matches_matrix_path(rng):
    for _ in range(20):
        family = FAMILIES[rng.integers(0, 3)]
        spec = ChannelSpec(family, float(rng.uniform(0, ETA_MAX[family])))
        r = float(rng.random())
        a, b, c = output_entries(spec, r)
        ref = apply(spec, pure_state(InputState(r)))
        assert abs(a - ref[0, 0].real) < 1e-14
        assert abs(b - ref[1, 1].real) < 1e-14
        assert abs(c - ref[0, 1]) < 1e-14


def test_output_entries_equal_the_array_body_bit_for_bit(rng):
    # output_entries and the batched evaluators share one body; given a
    # spec's eta factors, floats and arrays give the same bits.
    r = np.concatenate(([0.0, 1.0, 5e-322, 1.0 - 2.0**-53], rng.random(60)))
    for family in FAMILIES:
        etas = [0.0, ETA_MAX[family], *rng.uniform(0.0, ETA_MAX[family], 6)]
        specs = [ChannelSpec(family, float(eta)) for eta in etas]
        terms = np.array([spec._terms for spec in specs]).T[:, :, None]  # (term, spec, 1)
        batch = np.stack(_entries(family, terms, r, np.sqrt), axis=-1)  # (spec, r, entry)
        scalar = np.array([[output_entries(spec, float(x)) for x in r] for spec in specs])
        assert batch.tobytes() == scalar.tobytes()


def real_equivalent(family, r, phi):
    """The r' of a real input that discriminates exactly as the input (r, phi).

    Depolarizing and amplitude damping commute with rotations about Z, so
    r' = r. Bit-flip commutes with rotations about X and with Z, which take
    the Bloch vector (x, y, z) of the input to (|x|, 0, sign(z) |(y, z)|).
    """
    if family is not ChannelFamily.BIT_FLIP:
        return r
    z = 1.0 - 2.0 * r
    y = 2.0 * math.sqrt(r * (1.0 - r)) * math.sin(phi)
    return 0.5 * (1.0 - math.copysign(math.hypot(y, z), z))


@pytest.mark.parametrize("family", FAMILIES)
def test_input_phase_changes_no_success(family, rng):
    # Every value the package computes takes a real input; the dense path
    # of the oracles takes the phase, and must agree at the real
    # equivalent, shot by shot and for the collective measurement.
    for _ in range(40):
        spec0, spec1 = random_spec_pair(rng, family)
        r = rng.random(3)
        phi = rng.uniform(0.0, 2 * math.pi, 3)
        r_real = [real_equivalent(family, float(a), float(b)) for a, b in zip(r, phi)]
        outs = [
            [apply(spec, pure_state(InputState(float(a), float(b)))) for a, b in zip(r, phi)]
            for spec in (spec0, spec1)
        ]
        for k in range(3):
            phased = optimal_povm(WeightedPair(0.5, outs[0][k], outs[1][k]))
            real = [output_entries(spec, r_real[k]) for spec in (spec0, spec1)]
            mats = [np.array([[s[0], s[2]], [s[2], s[1]]]) for s in real]
            ref = optimal_povm(WeightedPair(0.5, *mats))
            assert abs(phased.p_succ - ref.p_succ) <= 1e-12
            for c in range(2):
                got = outcome_probs(outs[c][k], phased.povm)
                want = outcome_probs(mats[c], ref.povm)
                assert abs(got[0] - want[0]) <= 1e-12
                assert abs(got[1] - want[1]) <= 1e-12
        prods = [np.kron(np.kron(o[0], o[1]), o[2]) for o in outs]
        vals = np.linalg.eigvalsh(0.5 * (prods[0] - prods[1]))
        dense = 0.5 + float(vals[vals >= 0.0].sum())
        assert abs(dense - global_value(spec0, spec1, InputSchedule.flat(r_real))) <= 1e-12


def test_apply_rejects_invalid_density():
    spec = ChannelSpec(ChannelFamily.BIT_FLIP, 0.2)
    with pytest.raises(ValueError):
        apply(spec, np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        apply(spec, np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        apply(spec, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_check_density_matrix_accepts_valid(rng):
    rho = random_density(rng)
    np.testing.assert_allclose(check_density_matrix(rho), rho, atol=0)
