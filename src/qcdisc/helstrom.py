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

At lam0 = 0 with p0 <= 1/2 the projector and "always guess 1" tie on the
one-shot success 1 - p0, and the sign of a rounding residue in lam0 would
pick between them. The projector is kept on such a tie (lam0 within
:data:`TIE_TOL` of zero) unless the difference operator itself vanishes:
it is the limit of the optimal measurement for inputs that move off the
tie, and unlike the trivial POVM it leaves information for later shots.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import eig2_entries

__all__ = [
    "HelstromResult",
    "Povm",
    "PovmCase",
    "TIE_TOL",
    "WeightedPair",
    "brute_force_povm",
    "delta_op",
    "optimal_povm",
    "outcome_probs",
    "povm_defect",
    "success_and_traces",
]

# Tolerance of the one-shot tie rule: |lam0| and the size of the difference
# operator below it count as zero.
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


def success_and_traces(p0: float, s0, s1):
    """Scalar core of the optimal measurement.

    ``s0``/``s1`` are states in entry form ``(rho00, rho11, rho01)``.
    Returns ``(case, p_succ, t0, t1, lam0, lam1, v0)`` where
    ``t_c = Tr(rho_c pi0)`` and ``v0`` is the projective direction
    (``None`` for the trivial POVMs). Allocation free, shared by
    :func:`optimal_povm` and the multi-shot evaluators.
    """
    p1 = 1.0 - p0
    da = p0 * s0[0] - p1 * s1[0]
    db = p0 * s0[1] - p1 * s1[1]
    dc = p0 * s0[2] - p1 * s1[2]
    lam0, lam1, v0, _ = eig2_entries(da, db, dc)
    informative = lam0 > 0.0 or (
        lam0 > -TIE_TOL and abs(da) + abs(db) + abs(dc) > TIE_TOL
    )
    if informative and 2.0 * p0 <= 1.0 + lam0:
        x, y = v0
        xc = x.conjugate()
        yc = y.conjugate()
        xx = (x * xc).real
        yy = (y * yc).real
        t0 = xx * s0[0] + yy * s0[1] + 2.0 * (xc * s0[2] * y).real
        t1 = xx * s1[0] + yy * s1[1] + 2.0 * (xc * s1[2] * y).real
        return PovmCase.PROJECTIVE, lam0 + 1.0 - p0, t0, t1, lam0, lam1, v0
    if lam0 > 0.0 or p0 > 0.5:
        return PovmCase.ALWAYS_GUESS_0, p0, 1.0, 1.0, lam0, lam1, None
    return PovmCase.ALWAYS_GUESS_1, 1.0 - p0, 0.0, 0.0, lam0, lam1, None


def _traces_batch(p0, s0, s1):
    """Traces (t0, t1) of the optimal one-shot measurement, elementwise.

    The real-arithmetic twin of :func:`success_and_traces`: the same case
    split, tie rule and eigenvector branch, so a zero norm cannot occur.
    """
    p1 = 1.0 - p0
    da = p0 * s0[0] - p1 * s1[0]
    db = p0 * s0[1] - p1 * s1[1]
    dc = p0 * s0[2] - p1 * s1[2]
    half_diff = 0.5 * (da - db)
    absq = np.abs(dc)
    lam0 = 0.5 * (da + db) + np.hypot(half_diff, absq)
    tie = (lam0 > -TIE_TOL) & (np.abs(da) + np.abs(db) + absq > TIE_TOL)
    projective = ((lam0 > 0.0) | tie) & (2.0 * p0 <= 1.0 + lam0)
    trivial = (lam0 > 0.0) | (p0 > 0.5)
    upper = half_diff >= 0.0
    x = np.where(upper, lam0 - db, dc)
    y = np.where(upper, dc, lam0 - da)
    diagonal = absq == 0.0
    if diagonal.any():
        first = (da >= db)[diagonal]
        x[diagonal] = first
        y[diagonal] = ~first
    norm = np.hypot(x, y)
    x /= norm
    y /= norm
    xx = x * x
    yy = y * y
    t0 = np.where(projective, xx * s0[0] + yy * s0[1] + 2.0 * (x * s0[2] * y), trivial)
    t1 = np.where(projective, xx * s1[0] + yy * s1[1] + 2.0 * (x * s1[2] * y), trivial)
    return t0, t1


def delta_op(w: WeightedPair) -> np.ndarray:
    """The weighted difference p0*rho0 - (1-p0)*rho1."""
    return w.p0 * np.asarray(w.rho0, dtype=complex) - (1.0 - w.p0) * np.asarray(
        w.rho1, dtype=complex
    )


def _build_povm(case: PovmCase, v0) -> Povm:
    if case is PovmCase.PROJECTIVE:
        ket = np.array(v0, dtype=complex)
        pi0 = np.outer(ket, ket.conj())
        return Povm(pi0, _I2 - pi0, case)
    if case is PovmCase.ALWAYS_GUESS_0:
        return Povm(_I2.copy(), _ZERO2.copy(), case)
    return Povm(_ZERO2.copy(), _I2.copy(), case)


def optimal_povm(w: WeightedPair) -> HelstromResult:
    """Optimal binary POVM and its success probability."""
    case, p_succ, _, _, lam0, lam1, v0 = success_and_traces(
        w.p0, _entries(np.asarray(w.rho0, dtype=complex)), _entries(np.asarray(w.rho1, dtype=complex))
    )
    return HelstromResult(_build_povm(case, v0), p_succ, lam0, lam1)


def outcome_probs(rho, m: Povm):
    """(Tr(rho pi0), Tr(rho pi1)) as real numbers."""
    rho = np.asarray(rho, dtype=complex)
    return (
        float(np.trace(rho @ m.pi0).real),
        float(np.trace(rho @ m.pi1).real),
    )


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
