"""The three noise-channel families and their outputs for real pure inputs.

Each shot sends the pure state sqrt(1-r)|0> + sqrt(r)|1> through the
channel. A relative phase on |1> would change no success probability.
Depolarizing and amplitude damping commute with rotations about Z, which
remove the phase. Bit-flip commutes with rotations about X, which turn any
phased input into a real one. Either way one unitary maps the outputs of
both hypotheses, and the measurements follow it. Channels are
depolarizing, bit-flip and amplitude damping; the damping channel is
parametrized by an angle eta in [0, pi/2] (damping probability sin^2 eta).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ChannelFamily", "ChannelSpec", "output_entries"]


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


def output_entries(c: ChannelSpec, r: float):
    """Channel output for the input r as three floats.

    Returns ``(rho00, rho11, rho01)``; the output is a real symmetric
    matrix. Bypasses any matrix layer; used by the strategy evaluators in
    tight loops.
    """
    a = 1.0 - r
    b = r
    off = math.sqrt(r * (1.0 - r))
    eta = c.eta
    if c.family is ChannelFamily.DEPOLARIZING:
        keep = 1.0 - eta
        return keep * a + 0.5 * eta, keep * b + 0.5 * eta, keep * off
    if c.family is ChannelFamily.BIT_FLIP:
        keep = 1.0 - eta
        return keep * a + eta * b, keep * b + eta * a, keep * off + eta * off
    cos_eta = math.cos(eta)
    sin_eta = math.sin(eta)
    return a + b * sin_eta * sin_eta, b * cos_eta * cos_eta, off * cos_eta


def _eta_terms(family: ChannelFamily, eta):
    """The two factors of :func:`_entries_batch` that depend on eta alone,
    elementwise: (1 - eta, eta), or (cos eta, sin eta) for amplitude damping."""
    if family is ChannelFamily.AMPLITUDE_DAMPING:
        return np.cos(eta), np.sin(eta)
    return 1.0 - eta, eta


def _entries_batch(family: ChannelFamily, terms, r):
    """Output entries (rho00, rho11, rho01) of the input r, elementwise.

    ``terms`` are the eta factors of :func:`_eta_terms`. The array twin of
    :func:`output_entries`, same operations.
    """
    a = 1.0 - r
    off = np.sqrt(r * a)
    if family is ChannelFamily.DEPOLARIZING:
        keep, eta = terms
        return keep * a + 0.5 * eta, keep * r + 0.5 * eta, keep * off
    if family is ChannelFamily.BIT_FLIP:
        keep, eta = terms
        return keep * a + eta * r, keep * r + eta * a, keep * off + eta * off
    cos_eta, sin_eta = terms
    return a + r * sin_eta * sin_eta, r * cos_eta * cos_eta, off * cos_eta
