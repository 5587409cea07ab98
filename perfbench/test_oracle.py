"""Pins the benchmark's oracle to cases derived by hand.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

FAMILIES = tuple(oracle.ETA_MAX)


def _pair(rng, family):
    lo, hi = np.sort(rng.uniform(0.05, 0.95, 2)) * oracle.ETA_MAX[family]
    return float(hi), float(lo)


def _helstrom(rho0, rho1):
    return 0.5 + 0.25 * float(np.abs(np.linalg.eigvalsh(rho0 - rho1)).sum())


@pytest.mark.parametrize(
    "family, eta0, eta1, expected",
    [
        ("depolarizing", 1.0, 0.0, 0.75),
        ("depolarizing", 0.8, 0.2, 0.65),
        ("bit-flip", 1.0, 0.0, 1.0),
        ("bit-flip", 0.75, 0.4, 0.675),
        # Full decay against the identity: |1> in, |0> or |1> out.
        ("amplitude-damping", math.pi / 2, 0.0, 1.0),
        # c0 = 0, c1 = 1/2: g^2 = 1/4 < 1/2, D = (1/2) / (2 sqrt(3/4)).
        ("amplitude-damping", math.pi / 2, math.pi / 3, 0.5 + 0.25 / math.sqrt(3.0)),
        # c0 = 1/2, c1 = 1: g^2 = 9/4, r = 1, D = c1^2 - c0^2 = 3/4.
        ("amplitude-damping", math.pi / 3, 0.0, 0.875),
    ],
)
def test_one_shot_hand_values(family, eta0, eta1, expected):
    assert oracle.one_shot_optimum(family, eta0, eta1) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
def test_one_shot_closed_form_is_the_best_input(family):
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(6):
        eta0, eta1 = _pair(rng, family)
        scan = max(
            _helstrom(oracle.output(family, eta0, r), oracle.output(family, eta1, r)) for r in grid
        )
        best = oracle.one_shot_optimum(family, eta0, eta1)
        assert scan <= best + 1e-12
        assert scan >= best - 1e-6


@pytest.mark.parametrize("family", FAMILIES)
def test_one_shot_all_strategies_equal_helstrom(family):
    rng = np.random.default_rng(4)
    for _ in range(5):
        eta0, eta1 = _pair(rng, family)
        r = float(rng.random())
        want = _helstrom(oracle.output(family, eta0, r), oracle.output(family, eta1, r))
        b, _ = oracle.bayesian(family, eta0, eta1, [[r]])
        assert b == pytest.approx(want, abs=1e-14)
        assert oracle.markovian(family, eta0, eta1, [[r]])[0] == pytest.approx(want, abs=1e-14)
        assert oracle.global_(family, eta0, eta1, [r]) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_pure_outputs_reach_the_pure_state_bound(n):
    # Bit-flip at eta 1 and 0 maps the input to X|psi> and |psi>, pure states
    # with squared overlap F = 4 r (1 - r); n copies are told apart with
    # success (1 + sqrt(1 - F^n)) / 2, and local feedforward attains it.
    rng = np.random.default_rng(5)
    for _ in range(4):
        r = float(rng.uniform(0.05, 0.95))
        bound = 0.5 * (1.0 + math.sqrt(1.0 - (4.0 * r * (1.0 - r)) ** n))
        rs = [r] * n
        b, _ = oracle.bayesian("bit-flip", 1.0, 0.0, oracle.flat_levels(rs, "bayesian"))
        m, _ = oracle.markovian("bit-flip", 1.0, 0.0, oracle.flat_levels(rs, "markovian"))
        g = oracle.global_("bit-flip", 1.0, 0.0, rs)
        assert g == pytest.approx(bound, abs=1e-12)
        assert b == pytest.approx(bound, abs=1e-12)
        assert m == pytest.approx(bound, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_bayesian_never_beats_global_on_a_shared_schedule(family):
    rng = np.random.default_rng(6)
    for n in (2, 3, 4, 5):
        eta0, eta1 = _pair(rng, family)
        rs = rng.random(n)
        b, _ = oracle.bayesian(family, eta0, eta1, oracle.flat_levels(rs, "bayesian"))
        assert b <= oracle.global_(family, eta0, eta1, rs) + 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_two_shots_bayesian_equals_markovian(family):
    # With two shots the previous outcome is the whole history.
    rng = np.random.default_rng(7)
    for _ in range(6):
        eta0, eta1 = _pair(rng, family)
        r0, r1a, r1b = rng.random(3)
        levels = [[r0], [r1a, r1b]]
        b, _ = oracle.bayesian(family, eta0, eta1, levels)
        m, _ = oracle.markovian(family, eta0, eta1, levels)
        assert b == pytest.approx(m, abs=1e-14)


def test_posteriors_follow_bayes_rule():
    # Two shots by hand: the posterior after outcome 0 at prior 1/2 is
    # t0 / (t0 + t1), with t_c the probability of outcome 0 under channel c.
    family, eta0, eta1, r = "amplitude-damping", 1.2, 0.5, 0.3
    rho0, rho1 = oracle.output(family, eta0, r), oracle.output(family, eta1, r)
    vals, vecs = np.linalg.eigh(rho0 - rho1)
    v = vecs[:, 1]
    t0 = float((v.conj() @ rho0 @ v).real)
    t1 = float((v.conj() @ rho1 @ v).real)
    _, nodes = oracle.bayesian(family, eta0, eta1, oracle.flat_levels([r, r], "bayesian"))
    (post0, weight0), (post1, weight1) = nodes
    assert (post0[0], weight0[0]) == (0.5, 2.0)
    assert post1[0] == pytest.approx(t0 / (t0 + t1), abs=1e-14)
    assert post1[1] == pytest.approx((1 - t0) / (2 - t0 - t1), abs=1e-14)
    assert weight1 == pytest.approx([t0 + t1, 2 - t0 - t1], abs=1e-14)
    # The Markovian strategy keeps one node per previous outcome: the same.
    _, markov = oracle.markovian(family, eta0, eta1, oracle.flat_levels([r, r], "markovian"))
    assert markov[1][0] == pytest.approx(post1, abs=1e-14)
