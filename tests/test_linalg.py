import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_hermitian
from qcdisc.linalg import (
    ConvergenceError,
    NonHermitianError,
    adjoint,
    eig2_entries,
    eigen_hermitian,
    jacobi_eigh,
    matmul,
    tensor,
    trace,
)

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def product_oracle(a, b):
    """Entry-by-entry sum-of-products reference for the matrix product."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def test_matmul_identity(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(matmul(np.eye(3), a), a, atol=1e-15)


def test_pauli_x_involution():
    np.testing.assert_allclose(matmul(PAULI_X, PAULI_X), I2, atol=1e-15)


def test_matmul_matches_product_oracle(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_allclose(matmul(a, b), product_oracle(a, b), atol=1e-14)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        matmul(np.ones((2, 3)), np.ones((3, 2)))


def test_trace_identity():
    assert trace(I2) == 2.0


def test_adjoint_conjugate_transpose(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(adjoint(a), a.conj().T, atol=0)


def test_tensor_identity():
    np.testing.assert_allclose(tensor(I2, I2), np.eye(4), atol=0)


def test_tensor_layout():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 2.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [3.0, 0.0, 4.0, 0.0],
        ]
    )
    np.testing.assert_allclose(tensor(a, b), expected, atol=0)


def test_trace_of_tensor_factorizes(rng):
    for _ in range(10):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 4)
        lhs = trace(tensor(a, b))
        rhs = trace(a) * trace(b)
        assert abs(lhs - rhs) < 1e-12


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
    for _ in range(20):
        h = random_hermitian(rng, 2)
        analytic = eigen_hermitian(h)
        vals, vecs = jacobi_eigh(h)
        order = np.argsort(-vals)
        np.testing.assert_allclose(vals[order], analytic.eigenvalues, atol=1e-10)
        for j in range(2):
            overlap = abs(np.vdot(vecs[:, order[j]], analytic.eigenvectors[:, j]))
            assert abs(overlap - 1.0) < 1e-10


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
    for app, aqq, apq in ((1e-322, -1e-322, 1e-162), (0.0, 0.0, 2e-170), (-1e-300, 0.0, 3e-170j)):
        lam0, lam1, v0, v1 = eig2_entries(app, aqq, apq)
        assert lam0 >= lam1
        for v in (v0, v1):
            assert abs(math.hypot(abs(v[0]), abs(v[1])) - 1.0) < 1e-15
