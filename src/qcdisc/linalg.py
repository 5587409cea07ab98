"""Dense complex linear algebra for small Hermitian problems.

Everything operates on plain ``numpy`` arrays of complex128. Matrices are
square, eigenvectors come back as columns. The eigensolver is exact at 2x2
(closed form) and iterative above (cyclic Jacobi rotations), which is plenty
for the matrix sizes this package deals with (at most a few hundred).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "HermitianEigen",
    "NonHermitianError",
    "adjoint",
    "eigen_hermitian",
    "jacobi_eigh",
    "matmul",
    "tensor",
    "trace",
]

# Inputs are accepted as Hermitian when ||A - A^H||_F is below this.
HERMITIAN_TOL = 1e-10


class NonHermitianError(ValueError):
    """Matrix is not Hermitian within tolerance."""


class ConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted before reaching the target accuracy."""


def _require_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def matmul(a, b) -> np.ndarray:
    """Product of two square matrices of equal dimension."""
    a = _require_square(a)
    b = _require_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _require_square(a).conj().T.copy()


def trace(a) -> complex:
    """Sum of the diagonal."""
    return complex(np.trace(_require_square(a)))


def tensor(a, b) -> np.ndarray:
    """Kronecker product, left factor outermost."""
    return np.kron(_require_square(a), _require_square(b))


@dataclass(frozen=True)
class HermitianEigen:
    """Eigensystem of a Hermitian matrix.

    ``eigenvalues`` is sorted descending and ``eigenvectors[:, i]`` is the
    unit eigenvector paired with ``eigenvalues[i]``. The first nonzero
    component of each eigenvector is made real non-negative so the output
    is deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return sum_i lambda_i |v_i><v_i|."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig2_entries(app: float, aqq: float, apq: complex):
    """Closed-form eigensystem of ``[[app, apq], [conj(apq), aqq]]``.

    Returns ``(lam0, lam1, v0, v1)`` with lam0 >= lam1 and the eigenvectors
    as (component, component) tuples, normalized. This scalar kernel is
    shared by the 2x2 path of :func:`eigen_hermitian` and by callers that
    cannot afford array round-trips.
    """
    half_tr = 0.5 * (app + aqq)
    half_diff = 0.5 * (app - aqq)
    absq = abs(apq)
    radius = math.hypot(half_diff, absq)
    lam0 = half_tr + radius
    lam1 = half_tr - radius
    if absq == 0.0:
        if app >= aqq:
            return lam0, lam1, (1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j)
        return lam0, lam1, (0.0j, 1.0 + 0.0j), (1.0 + 0.0j, 0.0j)
    # Pick the better-conditioned eigenvector expression for lam0; the
    # discarded one degenerates when lam0 approaches the matching diagonal.
    if half_diff >= 0.0:
        u, w = lam0 - aqq, apq.conjugate()
    else:
        u, w = apq, lam0 - app
    # hypot of the moduli: squaring them underflows to a zero norm once the
    # off-diagonal entry is below about 1e-154.
    norm = math.hypot(abs(u), abs(w))
    u /= norm
    w /= norm
    v0 = (u, w)
    v1 = (-w.conjugate(), u.conjugate())
    return lam0, lam1, v0, v1


def _phase_fix(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    v = vectors.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > tol)
        if nz.size:
            lead = col[nz[0]]
            v[:, j] = col * (abs(lead) / lead)
    return v


def jacobi_eigh(a, tol: float = 1e-12, max_sweeps: int = 100):
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Sweeps the upper triangle zeroing one off-diagonal element at a time
    with unitary plane rotations, until the off-diagonal Frobenius norm
    drops below ``tol``. Returns ``(eigenvalues, eigenvectors)`` in the
    rotation's natural (unsorted) order.

    Raises :class:`ConvergenceError` after ``max_sweeps`` sweeps; for a
    well-formed Hermitian matrix convergence is quadratic and needs around
    ten sweeps.
    """
    a = np.array(_require_square(a), dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    # Rotating on elements far below tol cannot affect convergence.
    skip = tol / (10.0 * n * n)
    for sweep in range(max_sweeps + 1):
        off = a - np.diag(np.diag(a))
        if np.linalg.norm(off) <= tol:
            return np.real(np.diag(a)).copy(), v
        if sweep == max_sweeps:
            raise ConvergenceError(
                f"off-diagonal norm {np.linalg.norm(off):.3e} above {tol:.1e} "
                f"after {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                absq = abs(apq)
                if absq <= skip:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * absq)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                u = apq / absq
                su = s * u
                suc = su.conjugate()
                # A <- V^H A V restricted to the (p, q) plane.
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - suc * colq
                a[:, q] = su * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - su * rowq
                a[q, :] = suc * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                colp = v[:, p].copy()
                colq = v[:, q].copy()
                v[:, p] = c * colp - suc * colq
                v[:, q] = su * colp + c * colq
    raise AssertionError("unreachable")


def eigen_hermitian(a, tol: float = 1e-12, max_sweeps: int = 100) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is checked against :data:`HERMITIAN_TOL` and symmetrized to
    suppress round-off drift. 2x2 matrices use the closed-form solution,
    larger ones :func:`jacobi_eigh`.
    """
    a = _require_square(a)
    defect = np.linalg.norm(a - a.conj().T)
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(f"||A - A^H|| = {defect:.3e} exceeds {HERMITIAN_TOL:.1e}")
    a = 0.5 * (a + a.conj().T)
    n = a.shape[0]
    if n == 1:
        values = np.array([a[0, 0].real])
        vectors = np.ones((1, 1), dtype=complex)
    elif n == 2:
        lam0, lam1, v0, v1 = eig2_entries(a[0, 0].real, a[1, 1].real, a[0, 1])
        values = np.array([lam0, lam1])
        vectors = np.array([[v0[0], v1[0]], [v0[1], v1[1]]], dtype=complex)
    else:
        values, vectors = jacobi_eigh(a, tol=tol, max_sweeps=max_sweeps)
        order = np.argsort(-values, kind="stable")
        values = values[order]
        vectors = vectors[:, order]
    return HermitianEigen(values, _phase_fix(vectors))
