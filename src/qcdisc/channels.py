"""The three noise-channel families and their outputs for real pure inputs.

Each shot sends the pure state sqrt(1-r)|0> + sqrt(r)|1> through the
channel. A relative phase on |1> would change no success probability.
Depolarizing and amplitude damping commute with rotations about Z, which
remove the phase. Bit-flip commutes with rotations about X, which turn any
phased input into a real one. Either way one unitary maps the outputs of
both hypotheses, and the measurements follow it. Channels are
depolarizing, bit-flip and amplitude damping; the damping channel is
parametrized by an angle eta in [0, pi/2] (damping probability sin^2 eta).

The same argument gives the mirror of :data:`MIRRORED`. X maps the input
r to 1 - r, and bit-flip commutes with X, so the outputs for 1 - r are
those for r turned by X, under both hypotheses. Any strategy can measure
in the turned basis and see the same outcomes with the same
probabilities, so every success probability is unchanged when any shot's
r, or any node's r in an adaptive schedule, goes to 1 - r. In the
outputs, 1 - r swaps rho00 and rho11 and keeps rho01. Amplitude damping
has no such mirror: |0> is its fixed point and |1> is not. Depolarizing
commutes with X too, but its values do not depend on the inputs at all.

The output formulas are written once, in :func:`_entries`, for floats and
arrays alike, and the range of eta is checked once, in :func:`_check_eta`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MIRRORED", "ChannelFamily", "ChannelSpec", "output_entries"]


class ChannelFamily(str, enum.Enum):
    DEPOLARIZING = "depolarizing"
    BIT_FLIP = "bit-flip"
    AMPLITUDE_DAMPING = "amplitude-damping"


# The families whose success probabilities are unchanged when any input r
# goes to 1 - r (see the module docstring).
MIRRORED = frozenset({ChannelFamily.BIT_FLIP})

ETA_MAX = {
    ChannelFamily.DEPOLARIZING: 1.0,
    ChannelFamily.BIT_FLIP: 1.0,
    ChannelFamily.AMPLITUDE_DAMPING: math.pi / 2,
}


def _check_eta(family: ChannelFamily, eta):
    """Raise ValueError unless eta, a float or an array, lies in [0, ETA_MAX]."""
    hi = ETA_MAX[family]
    bad = np.extract(np.logical_not((eta >= 0.0) & (eta <= hi)), eta)
    if bad.size:
        raise ValueError(f"eta={bad[0]} out of range [0, {hi:.6g}] for {family.value}")


def _eta_terms(family: ChannelFamily, eta, lib):
    """The two factors of the outputs that depend on eta alone: (1 - eta,
    eta), or (cos eta, sin eta) for amplitude damping. ``lib`` is
    :mod:`numpy` for an array, and :mod:`math` for a spec's float eta, so
    that a spec's outputs keep the C library's bits on every platform."""
    if family is ChannelFamily.AMPLITUDE_DAMPING:
        return lib.cos(eta), lib.sin(eta)
    return 1.0 - eta, eta


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family tag plus its noise parameter."""

    family: ChannelFamily
    eta: float
    # The eta factors of the outputs, computed once for every output_entries call.
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "family", ChannelFamily(self.family))
        _check_eta(self.family, self.eta)
        object.__setattr__(self, "_terms", _eta_terms(self.family, self.eta, math))


def _entries(family: ChannelFamily, terms, r, sqrt):
    """Output entries (rho00, rho11, rho01) of the input r, elementwise, from
    the eta factors ``terms`` of :func:`_eta_terms`; ``sqrt`` is
    :func:`math.sqrt` for a float r and :func:`numpy.sqrt` for arrays."""
    a = 1.0 - r
    off = sqrt(r * a)
    if family is ChannelFamily.DEPOLARIZING:
        keep, eta = terms
        return keep * a + 0.5 * eta, keep * r + 0.5 * eta, keep * off
    if family is ChannelFamily.BIT_FLIP:
        keep, eta = terms
        return keep * a + eta * r, keep * r + eta * a, keep * off + eta * off
    cos_eta, sin_eta = terms
    return a + r * sin_eta * sin_eta, r * cos_eta * cos_eta, off * cos_eta


def output_entries(c: ChannelSpec, r: float):
    """Channel output for the input r as the three floats ``(rho00, rho11,
    rho01)`` of a real symmetric matrix, from the eta factors of ``c``."""
    return _entries(c.family, c._terms, r, math.sqrt)
