"""Reference values for the benchmark's correctness checks.

Nothing here imports qcdisc. Channel outputs come from each family's Kraus
operators, the feedforward strategies are evaluated by enumerating every
outcome history with dense 2x2 matrices and ``np.linalg.eigh``, the
collective measurement from explicit Kronecker products and
``np.linalg.eigvalsh``, and the input-optimized single shot in closed form.

Schedules are given per level: ``levels[k]`` holds the input parameters r of
shot k+1. The Bayesian strategy takes one r per outcome history (``2**k``
values at level k, history bits read most significant first), the Markovian
strategy one value at level 0 and one per previous outcome afterwards. A flat
schedule is the same r for every node of a level; :func:`flat_levels` builds
that form.
"""

from __future__ import annotations

import math

import numpy as np

ETA_MAX = {"depolarizing": 1.0, "bit-flip": 1.0, "amplitude-damping": math.pi / 2}

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kraus(family: str, eta: float) -> list[np.ndarray]:
    """Kraus operators of one channel, from the textbook definitions."""
    if family == "depolarizing":
        # rho -> (1 - eta) rho + eta I/2, written as a Pauli mixture.
        return [math.sqrt(1 - 0.75 * eta) * _I] + [math.sqrt(eta / 4) * p for p in (_X, _Y, _Z)]
    if family == "bit-flip":
        return [math.sqrt(1 - eta) * _I, math.sqrt(eta) * _X]
    if family == "amplitude-damping":
        # Damping probability sin^2(eta).
        return [
            np.array([[1, 0], [0, math.cos(eta)]], dtype=complex),
            np.array([[0, math.sin(eta)], [0, 0]], dtype=complex),
        ]
    raise ValueError(f"unknown family {family!r}")


def output(family: str, eta: float, r: float) -> np.ndarray:
    """Channel output for the pure input sqrt(1-r)|0> + sqrt(r)|1>."""
    ket = np.array([math.sqrt(1 - r), math.sqrt(r)], dtype=complex)
    rho = np.outer(ket, ket.conj())
    return sum(k @ rho @ k.conj().T for k in kraus(family, eta))


def flat_levels(r_values, kind: str) -> list[np.ndarray]:
    """Per-level form of a flat schedule for ``kind`` ('bayesian' or 'markovian')."""
    return [
        np.full(2**k if kind == "bayesian" else min(2**k, 2), float(r))
        for k, r in enumerate(r_values)
    ]


def _outputs(family, eta0, eta1, rs):
    """Stacked outputs of both channels at each r of ``rs``, shape (m, 2, 2)."""
    cache = {}
    for r in rs:
        if r not in cache:
            cache[r] = (output(family, eta0, r), output(family, eta1, r))
    return (
        np.array([cache[r][0] for r in rs]),
        np.array([cache[r][1] for r in rs]),
    )


def _guess0_projector(delta: np.ndarray) -> np.ndarray:
    """Minimum-error measurement element for 'guess 0': the projector onto
    the positive eigenspace of each weighted difference in the stack."""
    vals, vecs = np.linalg.eigh(delta)
    keep = (vals > 0.0).astype(float)
    return np.einsum("mij,mj,mkj->mik", vecs, keep, vecs.conj())


def _prob(rho: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return np.einsum("mij,mji->m", rho, pi).real


def _nodes(w0, w1, nodes):
    tot = w0 + w1
    post = np.divide(w0, tot, out=np.full_like(tot, np.nan), where=tot > 0)
    nodes.append((post, tot))


def bayesian(family: str, eta0: float, eta1: float, levels):
    """Bayesian success probability, and per level the arrays (posterior on
    hypothesis 0, total weight) of its nodes, the weight being the chance of
    reaching the node summed over both channels.

    Each node measures with the minimum-error measurement for the weights
    of its full outcome history; the last outcome is the guess.
    """
    l0 = np.ones(1)
    l1 = np.ones(1)
    nodes = []
    for k, rs in enumerate(levels):
        rs = np.asarray(rs, dtype=float)
        if rs.shape != (2**k,):
            raise ValueError(f"level {k} needs {2**k} values, got {rs.shape}")
        rho0, rho1 = _outputs(family, eta0, eta1, rs)
        _nodes(l0, l1, nodes)
        pi0 = _guess0_projector(l0[:, None, None] * rho0 - l1[:, None, None] * rho1)
        t0 = _prob(rho0, pi0)
        t1 = _prob(rho1, pi0)
        if k == len(levels) - 1:
            return 0.5 * float(np.sum(l0 * t0 + l1 * (1 - t1))), nodes
        # Child 2i follows outcome 0 at node i, child 2i+1 outcome 1.
        l0 = np.stack([l0 * t0, l0 * (1 - t0)], axis=1).ravel()
        l1 = np.stack([l1 * t1, l1 * (1 - t1)], axis=1).ravel()
    raise ValueError("schedule needs at least one shot")


def markovian(family: str, eta0: float, eta1: float, levels):
    """Markovian success probability by enumeration of every history, and
    per level the (posterior, total weight) arrays of its nodes: one node at
    level 0, then one per previous outcome.

    The measurement at shot k+1 > 1 depends on the previous outcome b only:
    it is the minimum-error one for the weights of all histories that end
    in b, summed over the earlier outcomes.
    """
    l0 = np.ones(1)
    l1 = np.ones(1)
    nodes = []
    for k, rs in enumerate(levels):
        rs = np.asarray(rs, dtype=float)
        want = 1 if k == 0 else 2
        if rs.shape != (want,):
            raise ValueError(f"level {k} needs {want} values, got {rs.shape}")
        last = np.arange(l0.size) & 1
        rho0, rho1 = _outputs(family, eta0, eta1, rs)
        w0 = np.array([l0[last == b].sum() for b in range(want)])
        w1 = np.array([l1[last == b].sum() for b in range(want)])
        _nodes(w0, w1, nodes)
        pi0 = _guess0_projector(w0[:, None, None] * rho0 - w1[:, None, None] * rho1)
        t0 = _prob(rho0, pi0)[last]
        t1 = _prob(rho1, pi0)[last]
        if k == len(levels) - 1:
            return 0.5 * float(np.sum(l0 * t0 + l1 * (1 - t1))), nodes
        l0 = np.stack([l0 * t0, l0 * (1 - t0)], axis=1).ravel()
        l1 = np.stack([l1 * t1, l1 * (1 - t1)], axis=1).ravel()
    raise ValueError("schedule needs at least one shot")


def global_(family: str, eta0: float, eta1: float, r_values) -> float:
    """Collective-measurement success: 1/2 + ||R0 - R1||_1 / 4, where R_c is
    the tensor product of the channel-c outputs over all shots."""
    big0 = np.ones((1, 1), dtype=complex)
    big1 = np.ones((1, 1), dtype=complex)
    for r in r_values:
        big0 = np.kron(big0, output(family, eta0, float(r)))
        big1 = np.kron(big1, output(family, eta1, float(r)))
    return 0.5 + 0.25 * float(np.abs(np.linalg.eigvalsh(big0 - big1)).sum())


def one_shot_optimum(family: str, eta0: float, eta1: float) -> float:
    """Best single-shot success over the input r, in closed form.

    It is 1/2 + D/2 with D the largest trace distance between the outputs.
    Depolarizing shrinks every Bloch vector by 1 - eta, so D = |eta0 - eta1|/2
    at any input; bit-flip reaches D = |eta0 - eta1| at r = 0. Amplitude
    damping with c = cos(eta) maps the input Bloch vector (x, 0, z) to
    (c x, 0, 1 - (1 - z) c^2), so D^2 = (c0 - c1)^2 (r + r^2 (g^2 - 1)) with
    g = c0 + c1; the maximum over r in [0, 1] is at r = 1 when g^2 >= 1/2
    and at r = 1 / (2 (1 - g^2)) otherwise.
    """
    if family == "depolarizing":
        return 0.5 + 0.25 * abs(eta0 - eta1)
    if family == "bit-flip":
        return 0.5 + 0.5 * abs(eta0 - eta1)
    c0, c1 = math.cos(eta0), math.cos(eta1)
    g2 = (c0 + c1) ** 2
    best = g2 if g2 >= 0.5 else 1.0 / (4.0 * (1.0 - g2))
    return 0.5 + 0.5 * abs(c0 - c1) * math.sqrt(best)
