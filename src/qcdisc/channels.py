"""Qubit input states and the three noise-channel families.

The input is the pure state sqrt(1-r)|0> + e^{-i phi} sqrt(r)|1>. Channels
are depolarizing, bit-flip and amplitude damping; the damping channel is
parametrized by an angle eta in [0, pi/2] (damping probability sin^2 eta).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelFamily",
    "ChannelSpec",
    "InputState",
    "apply",
    "check_density_matrix",
    "kraus_completeness",
    "kraus_operators",
    "output_entries",
    "pure_state",
]

TWO_PI = 2.0 * math.pi

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class ChannelFamily(str, enum.Enum):
    DEPOLARIZING = "depolarizing"
    BIT_FLIP = "bit-flip"
    AMPLITUDE_DAMPING = "amplitude-damping"


ETA_MAX = {
    ChannelFamily.DEPOLARIZING: 1.0,
    ChannelFamily.BIT_FLIP: 1.0,
    ChannelFamily.AMPLITUDE_DAMPING: math.pi / 2,
}


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


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family tag plus its noise parameter."""

    family: ChannelFamily
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "family", ChannelFamily(self.family))
        hi = ETA_MAX[self.family]
        if not 0.0 <= self.eta <= hi:
            raise ValueError(
                f"eta={self.eta} out of range [0, {hi:.6g}] for {self.family.value}"
            )


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


def output_entries(c: ChannelSpec, r: float, phi: float = 0.0):
    """Channel output for the pure input (r, phi) as scalar entries.

    Returns ``(rho00, rho11, rho01)`` with the diagonal real. Bypasses the
    matrix layer; used by the strategy evaluators in tight loops.
    """
    a = 1.0 - r
    b = r
    off = math.sqrt(r * (1.0 - r))
    co = off * cmath.exp(1j * phi) if phi != 0.0 else complex(off)
    eta = c.eta
    if c.family is ChannelFamily.DEPOLARIZING:
        keep = 1.0 - eta
        return keep * a + 0.5 * eta, keep * b + 0.5 * eta, keep * co
    if c.family is ChannelFamily.BIT_FLIP:
        keep = 1.0 - eta
        return keep * a + eta * b, keep * b + eta * a, keep * co + eta * co.conjugate()
    cos_eta = math.cos(eta)
    sin_eta = math.sin(eta)
    return a + b * sin_eta * sin_eta, b * cos_eta * cos_eta, co * cos_eta


def _entries_batch(family: ChannelFamily, eta, r):
    """Output entries (rho00, rho11, rho01) of the phi = 0 input r, elementwise.

    The real-arithmetic twin of :func:`output_entries`, same operations.
    """
    a = 1.0 - r
    off = np.sqrt(r * a)
    if family is ChannelFamily.DEPOLARIZING:
        keep = 1.0 - eta
        return keep * a + 0.5 * eta, keep * r + 0.5 * eta, keep * off
    if family is ChannelFamily.BIT_FLIP:
        keep = 1.0 - eta
        return keep * a + eta * r, keep * r + eta * a, keep * off + eta * off
    cos_eta = np.cos(eta)
    sin_eta = np.sin(eta)
    return a + r * sin_eta * sin_eta, r * cos_eta * cos_eta, off * cos_eta
