"""Dense reference implementations that the tests check the package against.

* A complex Hermitian eigensolver by cyclic Jacobi rotations, which is
  plenty for the matrix sizes of the global strategy (at most a few
  hundred) and independent of the closed-form 2x2 kernel of
  :mod:`qcdisc.helstrom` that it checks. Matrices are square, eigenvectors
  come back as columns.
* The weighted difference operator of the one-shot problem, and the
  outcome probabilities of a measurement.
* The channel families as Kraus maps on full density matrices, with the
  phased pure input sqrt(1-r)|0> + e^{-i phi} sqrt(r)|1>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from qcdisc.channels import ChannelFamily, ChannelSpec

# ---------------------------------------------------------------------------
# Hermitian eigensolver

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
    suppress round-off drift, then diagonalized by :func:`jacobi_eigh`.
    """
    a = _require_square(a)
    defect = np.linalg.norm(a - a.conj().T)
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(f"||A - A^H|| = {defect:.3e} exceeds {HERMITIAN_TOL:.1e}")
    a = 0.5 * (a + a.conj().T)
    values, vectors = jacobi_eigh(a, tol=tol, max_sweeps=max_sweeps)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    return HermitianEigen(values, _phase_fix(vectors))


def delta_op(w) -> np.ndarray:
    """The weighted difference p0*rho0 - (1-p0)*rho1 of a ``WeightedPair``."""
    return w.p0 * np.asarray(w.rho0, dtype=complex) - (1.0 - w.p0) * np.asarray(
        w.rho1, dtype=complex
    )


def outcome_probs(rho, m):
    """(Tr(rho pi0), Tr(rho pi1)) of a ``Povm`` as real numbers."""
    rho = np.asarray(rho, dtype=complex)
    return (
        float(np.trace(rho @ m.pi0).real),
        float(np.trace(rho @ m.pi1).real),
    )


# ---------------------------------------------------------------------------
# channels on density matrices

TWO_PI = 2.0 * math.pi

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class InputState:
    """Pure-state parameters: population r of |1> and relative phase phi."""

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {self.r}")
        if not 0.0 <= self.phi < TWO_PI:
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")


def pure_state(s: InputState) -> np.ndarray:
    """Density matrix |psi><psi| of the parametrized input state."""
    amp0 = math.sqrt(1.0 - s.r)
    amp1 = cmath.exp(-1j * s.phi) * math.sqrt(s.r)
    ket = np.array([amp0, amp1], dtype=complex)
    return np.outer(ket, ket.conj())


def check_density_matrix(rho, tol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return as complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if np.linalg.norm(rho - rho.conj().T) > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"density matrix trace {np.trace(rho):.12g} != 1")
    half_diff = 0.5 * (rho[0, 0].real - rho[1, 1].real)
    radius = math.hypot(half_diff, abs(rho[0, 1]))
    if 0.5 - radius < -tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def kraus_operators(c: ChannelSpec) -> list[np.ndarray]:
    """Kraus representation {K_i} with sum K_i^H K_i = I."""
    eta = c.eta
    if c.family is ChannelFamily.DEPOLARIZING:
        return [
            math.sqrt(1.0 - 0.75 * eta) * _I2,
            math.sqrt(0.25 * eta) * _X,
            math.sqrt(0.25 * eta) * _Y,
            math.sqrt(0.25 * eta) * _Z,
        ]
    if c.family is ChannelFamily.BIT_FLIP:
        return [math.sqrt(1.0 - eta) * _I2, math.sqrt(eta) * _X]
    return [
        np.array([[1.0, 0.0], [0.0, math.cos(eta)]], dtype=complex),
        np.array([[0.0, math.sin(eta)], [0.0, 0.0]], dtype=complex),
    ]


def kraus_completeness(c: ChannelSpec) -> float:
    """Frobenius distance of sum K_i^H K_i from the identity."""
    acc = np.zeros((2, 2), dtype=complex)
    for k in kraus_operators(c):
        acc += k.conj().T @ k
    return float(np.linalg.norm(acc - _I2))


def apply(c: ChannelSpec, rho) -> np.ndarray:
    """Channel output for a valid input density matrix."""
    rho = check_density_matrix(rho)
    if c.family is ChannelFamily.DEPOLARIZING:
        return (1.0 - c.eta) * rho + (0.5 * c.eta) * _I2
    out = np.zeros((2, 2), dtype=complex)
    for k in kraus_operators(c):
        out += k @ rho @ k.conj().T
    return out
