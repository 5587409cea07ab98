import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_hermitian
from oracles import ConvergenceError, NonHermitianError, eigen_hermitian, jacobi_eigh
from qcdisc.helstrom import eig2_entries

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_eigen_pauli_x():
    eig = eigen_hermitian(PAULI_X)
    np.testing.assert_allclose(eig.eigenvalues, [1.0, -1.0], atol=1e-14)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(eig.eigenvectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-14)
    np.testing.assert_allclose(eig.eigenvectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-14)


def test_eigen_diagonal_sorted():
    eig = eigen_hermitian(np.diag([1.0, 3.0, 2.0, 0.0]))
    np.testing.assert_allclose(eig.eigenvalues, [3.0, 2.0, 1.0, 0.0], atol=1e-12)


def test_eigen_random_8x8(rng):
    h = random_hermitian(rng, 8)
    eig = eigen_hermitian(h)
    assert np.linalg.norm(eig.reconstruct() - h) < 1e-10
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.linalg.norm(gram - np.eye(8)) < 1e-10
    assert np.all(np.diff(eig.eigenvalues) <= 1e-12)


def test_eigen_matches_numpy(rng):
    h = random_hermitian(rng, 6)
    eig = eigen_hermitian(h)
    ref = np.linalg.eigvalsh(h)[::-1]
    np.testing.assert_allclose(eig.eigenvalues, ref, atol=1e-10)


def test_phase_convention(rng):
    for dim in (2, 5):
        eig = eigen_hermitian(random_hermitian(rng, dim))
        for j in range(dim):
            col = eig.eigenvectors[:, j]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12
            assert lead.real >= 0.0


def test_jacobi_agrees_with_analytic_2x2(rng):
    # The closed-form real kernel, from the Bloch entries g = tr/2, hd =
    # (app - aqq)/2 and dc = |apq|, against the Jacobi oracle: both
    # eigenvalues and the projector 1/2 [[1 + nz, nx], [conj(nx), 1 - nz]]
    # onto the top eigenvector, with nx rotated back by the phase of apq;
    # e0 where the eigenvalues coincide.
    mats = [random_hermitian(rng, 2) for _ in range(20)]
    mats += [np.diag([0.3, -0.7]), np.diag([-0.2, 0.5]), 0.4 * np.eye(2)]
    for h in mats:
        h = np.asarray(h, dtype=complex)
        app, aqq = h[0, 0].real, h[1, 1].real
        c = abs(h[0, 1])
        lam0, lam1, nz, nx = eig2_entries(0.5 * (app + aqq), 0.5 * (app - aqq), c)
        nx = nx * (h[0, 1] / c if c else 1.0)
        vals, vecs = jacobi_eigh(h)
        order = np.argsort(-vals)
        np.testing.assert_allclose([lam0, lam1], vals[order], atol=1e-10)
        if vals[order[0]] - vals[order[1]] > 1e-10:
            top = vecs[:, order[0]]
            want = np.outer(top, top.conj())
        else:
            want = np.diag([1.0, 0.0])
        pi0 = 0.5 * np.array([[1.0 + nz, nx], [np.conj(nx), 1.0 - nz]])
        np.testing.assert_allclose(pi0, want, atol=1e-10)


def test_rejects_non_hermitian(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(NonHermitianError):
        eigen_hermitian(a)


def test_jacobi_sweep_cap(rng):
    h = random_hermitian(rng, 4)
    with pytest.raises(ConvergenceError):
        jacobi_eigh(h, max_sweeps=0)


@settings(max_examples=25, deadline=None)
@given(
    re=arrays(np.float64, (4, 4), elements=st.floats(-1.0, 1.0)),
    im=arrays(np.float64, (4, 4), elements=st.floats(-1.0, 1.0)),
)
def test_eigen_reconstruction_property(re, im):
    h = re + 1j * im
    h = 0.5 * (h + h.conj().T)
    eig = eigen_hermitian(h)
    assert np.linalg.norm(eig.reconstruct() - h) < 1e-10


def test_eig2_subnormal_off_diagonal_gives_unit_vectors():
    # Squared moduli of these entries underflow to zero.
    for g, hd, dc in ((0.0, 1e-322, 1e-162), (0.0, 0.0, 2e-170), (-5e-301, -5e-301, 3e-170)):
        lam0, lam1, nz, nx = eig2_entries(g, hd, dc)
        assert lam0 >= lam1
        assert abs(math.hypot(nz, nx) - 1.0) < 1e-15
