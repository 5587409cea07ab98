"""Minimum-error binary discrimination of two weighted qubit states.

Given states rho0, rho1 with prior weights p0 and 1-p0, the optimal
measurement is built from the eigensystem of ``p0*rho0 - (1-p0)*rho1``.
Depending on the sign of its top eigenvalue lam0 the best POVM is either
projective or one of the trivial pairs {I, 0} / {0, I}:

* lam0 > 0 and 2*p0 <= 1 + lam0:  project onto the top eigenvector,
  success lam0 + 1 - p0;
* lam0 > 0 and 2*p0 > 1 + lam0:   always guess 0, success p0;
* lam0 <= 0 and p0 <= 1/2:        always guess 1, success 1 - p0;
* lam0 <= 0 and p0 > 1/2:         always guess 0, success p0.

The projector ties with a trivial POVM on two boundaries: at lam0 = 0 with
"always guess 1" (both succeed with 1 - p0), and at lam1 = 0, that is
2*p0 = 1 + lam0, with "always guess 0" (both succeed with p0). On either,
the sign of a rounding residue would pick the measurement. The projector
is kept on both ties (lam0, or 2*p0 - 1 - lam0, within :data:`TIE_TOL` of
zero) unless the difference operator itself vanishes: it is the limit of
the optimal measurement for inputs that move off the tie, and unlike a
trivial POVM it leaves information for later shots.

Both kernels, the scalar :func:`success_and_traces` and the batched
:func:`_shot_batch`, work in the Bloch picture. With hd = (da - db)/2 and dc
from the entries of the difference operator and h = hypot(hd, |dc|), its
eigenvalues are lam0, lam1 = (da + db)/2 +- h, and its top eigenvector has
the unit Bloch vector (nz, nx) = (hd, dc)/h, the projector
pi0 = 1/2 [[1 + nz, nx], [conj(nx), 1 - nz]]; where h = 0 both take e0,
(nz, nx) = (1, 0). A state rho_c then has t_c = Tr(rho_c pi0) =
(rho00 + rho11 + nz*(rho00 - rho11))/2 + Re(rho01*conj(nx)). The scalar
kernel takes the weights (p0, 1 - p0) and a float or complex off-diagonal.
The batched one takes real states as z_c = (rho00 - rho11)/2 and
x_c = rho01, unnormalized weights (l0, l1), so (da + db)/2 = (l0 - l1)/2
and t_c = 1/2 + (z_c*hd + x_c*dc)/h; a last shot yields only its success,
l1 + lam0 on the projector and max(l0, l1) otherwise. Both kernels clamp
traces into [0, 1], so 1 - t never leaves a negative weight after rounding.
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
# difference operator below it count as zero.
TIE_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)
_ZERO2 = np.zeros((2, 2), dtype=complex)


class PovmCase(str, enum.Enum):
    PROJECTIVE = "projective"
    ALWAYS_GUESS_0 = "always-guess-0"
    ALWAYS_GUESS_1 = "always-guess-1"


@dataclass(frozen=True)
class WeightedPair:
    """Two density matrices with prior weight p0 on the first."""

    p0: float
    rho0: np.ndarray
    rho1: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 must be in [0, 1], got {self.p0}")


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


def _entries(rho: np.ndarray):
    return rho[0, 0].real, rho[1, 1].real, complex(rho[0, 1])


def eig2_entries(app: float, aqq: float, apq):
    """Closed-form eigensystem of ``[[app, apq], [conj(apq), aqq]]``.

    Returns ``(lam0, lam1, nz, nx)`` with lam0 >= lam1 and ``(nz, nx)`` the
    unit Bloch vector of the top eigenvector, whose projector is
    ``1/2 [[1 + nz, nx], [conj(nx), 1 - nz]]``; e0, ``(1.0, 0.0)``, where the
    eigenvalues coincide. One kernel serves both kinds of off-diagonal:
    ``apq`` is a float for every channel output and may be complex for a
    general state passed to :func:`optimal_povm`.
    """
    half_tr = 0.5 * (app + aqq)
    half_diff = 0.5 * (app - aqq)
    radius = math.hypot(half_diff, abs(apq))
    lam0 = half_tr + radius
    lam1 = half_tr - radius
    if radius == 0.0:
        return lam0, lam1, 1.0, 0.0
    return lam0, lam1, half_diff / radius, apq / radius


def success_and_traces(p0: float, s0, s1):
    """Scalar core of the optimal measurement.

    ``s0``/``s1`` are states in entry form ``(rho00, rho11, rho01)``.
    Returns ``(case, p_succ, t0, t1, lam0, lam1, n)`` where
    ``t_c = Tr(rho_c pi0)`` and ``n = (nz, nx)`` is the Bloch vector of the
    projector (``None`` for the trivial POVMs). Allocation free, shared by
    :func:`optimal_povm` and the multi-shot evaluators.
    """
    p1 = 1.0 - p0
    da = p0 * s0[0] - p1 * s1[0]
    db = p0 * s0[1] - p1 * s1[1]
    dc = p0 * s0[2] - p1 * s1[2]
    lam0, lam1, nz, nx = eig2_entries(da, db, dc)
    informative = lam0 > 0.0 or (
        lam0 > -TIE_TOL and abs(da) + abs(db) + abs(dc) > TIE_TOL
    )
    if informative and 2.0 * p0 <= 1.0 + lam0 + TIE_TOL:
        nxc = nx.conjugate()
        t0 = 0.5 * (s0[0] + s0[1] + nz * (s0[0] - s0[1])) + (s0[2] * nxc).real
        t1 = 0.5 * (s1[0] + s1[1] + nz * (s1[0] - s1[1])) + (s1[2] * nxc).real
        if not 0.0 <= t0 <= 1.0:
            t0 = 0.0 if t0 < 0.0 else 1.0
        if not 0.0 <= t1 <= 1.0:
            t1 = 0.0 if t1 < 0.0 else 1.0
        return PovmCase.PROJECTIVE, lam0 + 1.0 - p0, t0, t1, lam0, lam1, (nz, nx)
    if lam0 > 0.0 or p0 > 0.5:
        return PovmCase.ALWAYS_GUESS_0, p0, 1.0, 1.0, lam0, lam1, None
    return PovmCase.ALWAYS_GUESS_1, 1.0 - p0, 0.0, 0.0, lam0, lam1, None


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
        # Off the projector lam0 > 0 exactly where w0 > w1.
        return np.where(projective, w1 + lam0, np.maximum(w0, w1))
    flat = h == 0.0
    if np.count_nonzero(flat):
        hd[flat] = 1.0  # e0, so t = 1/2 + z = rho00
        h[flat] = 1.0
    t = np.minimum(np.maximum(0.5 + (z * hd + x * dc) / h, 0.0), 1.0)
    return np.where(projective, t, lam0 > 0.0)


def _build_povm(case: PovmCase, n) -> Povm:
    if case is PovmCase.PROJECTIVE:
        nz, nx = n
        pi0 = 0.5 * np.array([[1.0 + nz, nx], [nx.conjugate(), 1.0 - nz]], dtype=complex)
        return Povm(pi0, _I2 - pi0, case)
    if case is PovmCase.ALWAYS_GUESS_0:
        return Povm(_I2.copy(), _ZERO2.copy(), case)
    return Povm(_ZERO2.copy(), _I2.copy(), case)


def optimal_povm(w: WeightedPair) -> HelstromResult:
    """Optimal binary POVM and its success probability."""
    case, p_succ, _, _, lam0, lam1, n = success_and_traces(
        w.p0, _entries(np.asarray(w.rho0, dtype=complex)), _entries(np.asarray(w.rho1, dtype=complex))
    )
    return HelstromResult(_build_povm(case, n), p_succ, lam0, lam1)


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
