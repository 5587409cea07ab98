"""Minimum-error binary discrimination of two weighted qubit states.

Given states rho0, rho1 with weights w0, w1 >= 0 (a posterior p0 weighs
(p0, 1 - p0)), the optimal measurement is built from the eigensystem of
``w0*rho0 - w1*rho1``, whose eigenvalues lam0 >= lam1 sum to w0 - w1. The
best POVM is either projective or one of the trivial pairs {I, 0} / {0, I}:

* lam0 > 0 and lam1 <= 0:  project onto the top eigenvector, success
  w1 + lam0;
* otherwise:               guess 0 where w0 > w1, else 1, success
  max(w0, w1).

The projector ties with a trivial POVM at lam0 = 0 ("always guess 1") and
at lam1 = 0 ("always guess 0"). On either, the sign of a rounding residue
would pick the measurement. The projector is kept on both ties (lam0 or
lam1 within tol = (w0 + w1)*TIE_TOL of zero) unless the difference operator
itself is within tol of zero: it is the limit of the optimal measurement
for inputs that move off the tie, and unlike a trivial POVM it leaves
information for later shots.

Both kernels, the scalar :func:`success_and_traces` and the batched
:func:`_shot_batch`, write this rule in one real arithmetic, the Bloch
picture. State c enters as z_c = (rho00 - rho11)/2 and a real x_c = rho01
(channel outputs are real; :func:`optimal_povm` rotates a general pair's
phase away). The difference operator has g = (w0 - w1)/2 times the identity
plus the Bloch part hd = w0*z0 - w1*z1, dc = w0*x0 - w1*x1; with h =
hypot(hd, dc), lam0, lam1 = g +- h, and the top eigenvector has the unit
Bloch vector (nz, nx) = (hd, dc)/h, the projector pi0 = 1/2 [[1 + nz, nx],
[nx, 1 - nz]]; where h = 0 both take e0, (nz, nx) = (1, 0). Then t_c =
Tr(rho_c pi0) = 1/2 + z_c*nz + x_c*nx. The batched kernel takes many nodes,
and for a last shot yields only their success. Both clamp traces into
[0, 1], so 1 - t never leaves a negative weight after rounding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HelstromResult",
    "Povm",
    "PovmCase",
    "TIE_TOL",
    "WeightedPair",
    "brute_force_povm",
    "optimal_povm",
    "povm_defect",
    "success_and_traces",
]

# Tolerance of the one-shot tie rule: |lam0|, |lam1| and the size of the
# difference operator below it, times the total weight, count as zero.
TIE_TOL = 1e-12

_STATE_TOL = 1e-10  # a state's defects, as the povm suite bounds a POVM's

_I2 = np.eye(2)
_ZERO2 = np.zeros((2, 2))


class PovmCase(str, enum.Enum):
    PROJECTIVE = "projective"
    ALWAYS_GUESS_0 = "always-guess-0"
    ALWAYS_GUESS_1 = "always-guess-1"


@dataclass(frozen=True)
class WeightedPair:
    """Two qubit states, 2x2, Hermitian, of unit trace and positive
    semidefinite within _STATE_TOL, with prior weight p0 on the first."""

    p0: float
    rho0: np.ndarray
    rho1: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 must be in [0, 1], got {self.p0}")
        for name in ("rho0", "rho1"):
            rho = np.asarray(getattr(self, name))
            if rho.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got shape {rho.shape}")
            if not np.isfinite(rho).all():
                raise ValueError(f"{name} must have finite entries, got {rho.tolist()}")
            if np.abs(rho - rho.conj().T).max() > _STATE_TOL:
                raise ValueError(f"{name} must be Hermitian")
            if abs(np.trace(rho) - 1.0) > _STATE_TOL:
                raise ValueError(f"{name} must have unit trace, got {np.trace(rho)}")
            if np.linalg.eigvalsh(rho)[0] < -_STATE_TOL:
                raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class Povm:
    """Binary measurement (pi0, pi1); element index doubles as the guess."""

    pi0: np.ndarray
    pi1: np.ndarray
    case_tag: PovmCase


@dataclass(frozen=True)
class HelstromResult:
    povm: Povm
    p_succ: float
    lambda0: float
    lambda1: float


def eig2_entries(g: float, hd: float, dc: float):
    """Closed-form eigensystem of the real ``[[g + hd, dc], [dc, g - hd]]``.

    Returns ``(lam0, lam1, nz, nx)`` with lam0 >= lam1 and ``(nz, nx)`` the
    unit Bloch vector of the top eigenvector, whose projector is
    ``1/2 [[1 + nz, nx], [nx, 1 - nz]]``; e0, ``(1.0, 0.0)``, where the
    eigenvalues coincide.
    """
    h = math.hypot(hd, dc)
    if h == 0.0:
        return g, g, 1.0, 0.0
    return g + h, g - h, hd / h, dc / h


def success_and_traces(w0: float, w1: float, s0, s1):
    """Scalar core of the optimal measurement at the weights ``(w0, w1)``.

    ``s0``/``s1`` are states in real entry form ``(rho00, rho11, rho01)``.
    Returns ``(case, p_succ, t0, t1, lam0, lam1, n)``, with the success
    ``p_succ`` and lam0, lam1 at the scale of the weights,
    ``t_c = Tr(rho_c pi0)`` and ``n = (nz, nx)`` the Bloch vector of the
    projector (``None`` for the trivial POVMs). Allocation free, shared by
    :func:`optimal_povm` and the multi-shot evaluators.
    """
    z0 = 0.5 * (s0[0] - s0[1])
    z1 = 0.5 * (s1[0] - s1[1])
    hd = w0 * z0 - w1 * z1
    dc = w0 * s0[2] - w1 * s1[2]
    lam0, lam1, nz, nx = eig2_entries(0.5 * (w0 - w1), hd, dc)
    tol = (w0 + w1) * TIE_TOL  # TIE_TOL at the scale of the weights
    # On a tie, the projector unless the operator's size, |da| + |db| + |dc|
    # as in _shot_batch, is within tol of zero.
    if lam0 > -tol and lam1 <= tol and (
        lam0 > 0.0 or max(abs(w0 - w1), 2.0 * abs(hd)) + abs(dc) > tol
    ):
        t0 = 0.5 + z0 * nz + s0[2] * nx
        t1 = 0.5 + z1 * nz + s1[2] * nx
        if not 0.0 <= t0 <= 1.0:
            t0 = 0.0 if t0 < 0.0 else 1.0
        if not 0.0 <= t1 <= 1.0:
            t1 = 0.0 if t1 < 0.0 else 1.0
        return PovmCase.PROJECTIVE, w1 + lam0, t0, t1, lam0, lam1, (nz, nx)
    if w0 > w1:
        return PovmCase.ALWAYS_GUESS_0, w0, 1.0, 1.0, lam0, lam1, None
    return PovmCase.ALWAYS_GUESS_1, w1, 0.0, 0.0, lam0, lam1, None


def _shot_batch(w, z, x, last):
    """One shot of the optimal measurement at many nodes, elementwise.

    The array twin of :func:`success_and_traces` in the Bloch picture above.
    ``w`` stacks the weights of hypotheses 0 and 1, ``z`` and ``x`` those of
    the two channels, all broadcasting. Returns the traces stacked like
    ``w``, or with ``last`` each node's success weight (0 without weight).
    """
    w0, w1 = w[0], w[1]
    wz = w * z
    wx = w * x
    hd = wz[0] - wz[1]
    dc = wx[0] - wx[1]
    h = np.hypot(hd, dc)
    g = 0.5 * (w0 - w1)
    lam0 = g + h
    ntol = (w0 + w1) * -TIE_TOL  # -TIE_TOL at the scale of the weights
    projective = (lam0 > ntol) & (h - g >= ntol)  # and lam1 = g - h <= tol
    edge = projective & (lam0 <= 0.0)
    if np.count_nonzero(edge):
        # |da| + |db| + |dc|, with |da| + |db| = max(|da + db|, |da - db|).
        size = np.maximum(np.abs(w0 - w1), 2.0 * np.abs(hd)) + np.abs(dc)
        projective[edge] = (size > -ntol)[edge]
    if last:
        return np.where(projective, w1 + lam0, np.maximum(w0, w1))
    flat = h == 0.0
    if np.count_nonzero(flat):
        hd[flat] = 1.0  # e0, so t = 1/2 + z = rho00
        h[flat] = 1.0
    t = np.minimum(np.maximum(0.5 + (z * hd + x * dc) / h, 0.0), 1.0)
    return np.where(projective, t, w0 > w1)


def _build_povm(case: PovmCase, n) -> Povm:
    if case is PovmCase.PROJECTIVE:
        nz, nx = n
        pi0 = 0.5 * np.array([[1.0 + nz, nx], [nx.conjugate(), 1.0 - nz]])
        return Povm(pi0, _I2 - pi0, case)
    if case is PovmCase.ALWAYS_GUESS_0:
        return Povm(_I2.copy(), _ZERO2.copy(), case)
    return Povm(_ZERO2.copy(), _I2.copy(), case)


def optimal_povm(w: WeightedPair) -> HelstromResult:
    """Optimal binary POVM and its success probability. With u the phase of
    dc = p0*rho0[0, 1] - p1*rho1[0, 1], diag(1, conj(u)) makes dc real and
    keeps every success probability; the kernel's nx rotates back to nx/u."""
    rho0, rho1 = np.asarray(w.rho0), np.asarray(w.rho1)
    dc = w.p0 * rho0[0, 1] - (1.0 - w.p0) * rho1[0, 1]
    u = dc.conjugate() / abs(dc) if dc else 1.0  # exactly +-1 for a real dc
    s0, s1 = ((rho[0, 0].real, rho[1, 1].real, (u * rho[0, 1]).real) for rho in (rho0, rho1))
    case, p_succ, _, _, lam0, lam1, n = success_and_traces(w.p0, 1.0 - w.p0, s0, s1)
    return HelstromResult(_build_povm(case, n and (n[0], n[1] / u)), p_succ, lam0, lam1)


def povm_defect(m: Povm) -> float:
    """Worst violation of completeness and positivity; 0 for a clean POVM."""
    dim = m.pi0.shape[0]
    completeness = float(np.linalg.norm(m.pi0 + m.pi1 - np.eye(dim)))
    eig_floor = min(
        float(np.linalg.eigvalsh(m.pi0).min()), float(np.linalg.eigvalsh(m.pi1).min())
    )
    return max(completeness, -min(eig_floor, 0.0))


def brute_force_povm(w: WeightedPair, grid_n: int) -> float:
    """Best success probability over a dense grid of candidate POVMs.

    Scans every rank-1 projector pi0(theta, phi) on a grid_n x grid_n grid
    plus the two trivial POVMs, and returns the best value found. Serves as
    an independent check on :func:`optimal_povm`; the gap is O(1/grid_n^2).
    """
    if grid_n < 64:
        raise ValueError(f"grid_n must be at least 64, got {grid_n}")
    rho0 = np.asarray(w.rho0, dtype=complex)
    rho1 = np.asarray(w.rho1, dtype=complex)
    p1 = 1.0 - w.p0
    da = w.p0 * rho0[0, 0].real - p1 * rho1[0, 0].real
    db = w.p0 * rho0[1, 1].real - p1 * rho1[1, 1].real
    dc = w.p0 * rho0[0, 1] - p1 * rho1[0, 1]
    theta = np.linspace(0.0, 0.5 * math.pi, grid_n)
    phi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    # Tr(Delta pi0) = da cos^2 + db sin^2 + 2 sin cos Re(dc e^{i phi})
    cross = np.cos(phi) * dc.real - np.sin(phi) * dc.imag
    vals = (
        da * cos_t[:, None] ** 2
        + db * sin_t[:, None] ** 2
        + 2.0 * (sin_t * cos_t)[:, None] * cross[None, :]
    )
    best_projective = float(vals.max()) + p1
    return max(best_projective, w.p0, p1)
