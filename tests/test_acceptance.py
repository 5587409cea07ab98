"""Acceptance suite: one pass/fail line per criterion (run with ``pytest -s``).

Every expected value here is either derived in this file from first
principles (closed forms, dense scans, explicit enumerations, binomial
bounds) or is a direct property assertion; nothing is copied from the
package's own outputs.
"""

import itertools
import math
import time

import numpy as np

from oracles import outcome_probs
from qcdisc.channels import ETA_MAX, ChannelFamily, ChannelSpec, output_entries
from qcdisc.helstrom import WeightedPair, brute_force_povm, optimal_povm
from qcdisc.optimizer import OptimizerConfig, maximize
from qcdisc.strategies import (
    InputSchedule,
    StrategyKind,
    bayesian_value,
    eval_bayesian,
    eval_global,
    eval_markovian,
    markovian_value,
    simulate_protocol,
    strategy_value,
)
from qcdisc.experiments import make_config, optimize_strategy, run_curve, run_sweep_diff

HALF_PI = math.pi / 2
FAMILIES = list(ChannelFamily)
REFERENCE_POINTS = ((0.75, 0.4), (0.95, 0.6))  # fractions of the valid range


def report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {desc}: {detail}")
    assert ok, f"criterion {num} ({desc}): {detail}"


def closed_form(family: ChannelFamily, e0: float, e1: float) -> float:
    """One-shot optimum, derived independently from the channel algebra."""
    if family is ChannelFamily.DEPOLARIZING:
        return 0.5 * (1.0 + 0.5 * (e0 - e1))
    if family is ChannelFamily.BIT_FLIP:
        return 0.5 * (1.0 + (e0 - e1))
    gamma = math.cos(e0) + math.cos(e1)
    if gamma < 1.0 / math.sqrt(2.0):
        return 0.25 * (2.0 + (math.cos(e1) - math.cos(e0)) / math.sqrt(1.0 - gamma**2))
    return 0.5 * (math.sin(e0) ** 2 + math.cos(e1) ** 2)


def random_density(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_pair(rng, family):
    hi = ETA_MAX[family]
    lo_v, hi_v = np.sort(rng.uniform(0.02 * hi, 0.98 * hi, size=2))
    if hi_v - lo_v < 1e-6:
        hi_v = min(hi, lo_v + 0.1 * hi)
    return ChannelSpec(family, float(hi_v)), ChannelSpec(family, float(lo_v))


def test_criterion_1_one_shot_closed_forms():
    t0 = time.time()
    worst = 0.0
    for family in FAMILIES:
        axis = np.linspace(0.0, ETA_MAX[family], 20)
        for e0 in axis:
            for e1 in axis:
                if e0 <= e1:
                    continue
                p, _, _ = optimize_strategy(
                    "markovian",
                    ChannelSpec(family, float(e0)),
                    ChannelSpec(family, float(e1)),
                    1,
                    "flat",
                    OptimizerConfig(seed=1),
                )
                worst = max(worst, abs(p - closed_form(family, float(e0), float(e1))))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 60
    report(1, "one-shot closed forms", ok, f"max dev {worst:.2e} (tol 1e-6), {elapsed:.1f}s (budget 60s)")


def test_criterion_2_helstrom_brute_force_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    low, high = 0.0, 0.0
    for _ in range(1000):
        w = WeightedPair(float(rng.random()), random_density(rng), random_density(rng))
        gap = optimal_povm(w).p_succ - brute_force_povm(w, 512)
        low = min(low, gap)
        high = max(high, gap)
    elapsed = time.time() - t0
    ok = low >= -1e-9 and high <= 1e-3 and elapsed <= 60
    report(2, "Helstrom vs 512-grid brute force", ok,
           f"gap range [{low:.2e}, {high:.2e}] in [-1e-9, 1e-3], {elapsed:.1f}s (budget 60s)")


def test_criterion_3_strategy_reductions():
    t0 = time.time()
    rng = np.random.default_rng(33)
    worst_one = 0.0
    worst_two = 0.0
    for i in range(50):
        family = FAMILIES[i % 3]
        spec0, spec1 = random_pair(rng, family)
        sched1 = InputSchedule.flat([float(rng.random())])
        values = [strategy_value(kind, spec0, spec1, sched1) for kind in StrategyKind]
        worst_one = max(worst_one, max(values) - min(values))
        sched2 = InputSchedule.flat(rng.random(2))
        worst_two = max(
            worst_two,
            abs(
                bayesian_value(spec0, spec1, sched2)
                - markovian_value(spec0, spec1, sched2)
            ),
        )
    elapsed = time.time() - t0
    ok = worst_one <= 1e-12 and worst_two <= 1e-12 and elapsed <= 60
    report(3, "strategy reductions", ok,
           f"one-shot spread {worst_one:.2e}, two-shot |B-M| {worst_two:.2e} (tol 1e-12), "
           f"{elapsed:.1f}s (budget 60s)")


def test_criterion_4_markovian_forward_vs_enumeration():
    t0 = time.time()
    rng = np.random.default_rng(44)
    worst = 0.0
    for i in range(20):
        family = FAMILIES[i % 3]
        spec0, spec1 = random_pair(rng, family)
        sched = InputSchedule.flat(rng.random(5))
        ev = eval_markovian(spec0, spec1, sched)
        total = 0.0
        for hist in itertools.product((0, 1), repeat=5):
            for c, spec in enumerate((spec0, spec1)):
                prob = 1.0
                for k, bit in enumerate(hist):
                    if prob == 0.0:
                        break
                    key = (1, None) if k == 0 else (k + 1, hist[k - 1])
                    s = output_entries(spec, sched.levels[k])
                    rho = np.array([[s[0], s[2]], [s[2].conjugate(), s[1]]])
                    q0, q1 = outcome_probs(rho, ev.povm_tree[key])
                    prob *= q0 if bit == 0 else q1
                if hist[-1] == c:
                    total += prob
        worst = max(worst, abs(ev.p_succ - 0.5 * total))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed <= 60
    report(4, "Markovian forward pass vs explicit enumeration", ok,
           f"max dev {worst:.2e} (tol 1e-12), {elapsed:.1f}s (budget 60s)")


def test_criterion_5_figure_shape_reproduction():
    t0 = time.time()
    values = {}
    for family in FAMILIES:
        cfg = make_config(family.value, points=REFERENCE_POINTS, n_max=6, seed=17, jobs=2)
        for row in run_curve(cfg):
            values[(family, row.eta0, row.strategy, row.n)] = row.p_succ
    problems = []
    keys = sorted({(f, e) for (f, e, _, _) in values}, key=str)
    for family, e0 in keys:
        for n in range(1, 7):
            pg = values[(family, e0, "global", n)]
            pb = values[(family, e0, "bayesian", n)]
            pm = values[(family, e0, "markovian", n)]
            # From 4 shots on, pb >= pm describes the optima found, not a
            # theorem: B < M can occur on a shared schedule (strategies.py).
            if not (pg >= pb - 1e-6 and pb >= pm - 1e-6):
                problems.append(f"ordering {family.value} eta0={e0:.3f} n={n}")
            for p in (pg, pb, pm):
                if not 0.5 < p < 1.0:
                    problems.append(f"range {family.value} eta0={e0:.3f} n={n} p={p}")
        for strat in ("global", "bayesian", "markovian"):
            seq = [values[(family, e0, strat, n)] for n in range(1, 7)]
            if any(b < a - 1e-6 for a, b in zip(seq, seq[1:])):
                problems.append(f"monotonicity {family.value} eta0={e0:.3f} {strat}")
    elapsed = time.time() - t0
    ok = not problems and elapsed <= 900
    report(5, "figure-shape reproduction (n=1..6, reference points)", ok,
           f"{len(problems)} violations {problems[:3]}, {elapsed:.0f}s (budget 900s)")


def test_criterion_6_difference_heatmaps():
    t0 = time.time()
    sweeps = {}
    for family in FAMILIES:
        cfg = make_config(family.value, grid=(0.0, 1.0, 30), seed=23, jobs=2)
        sweeps[family] = run_sweep_diff(cfg)
    ad = sweeps[ChannelFamily.AMPLITUDE_DAMPING]
    min_diff = min(r.diff for r in ad)
    peak = max(ad, key=lambda r: r.diff)
    cell = HALF_PI / 29
    peak_distance = abs(peak.eta0 + peak.eta1 - HALF_PI) / cell
    bf_max = max(r.diff for r in sweeps[ChannelFamily.BIT_FLIP])
    dp_max = max(r.diff for r in sweeps[ChannelFamily.DEPOLARIZING])
    elapsed = time.time() - t0
    nonneg_ok = min_diff >= -1e-9
    location_ok = peak_distance <= 2.0
    ratio_ok = dp_max <= bf_max / 5.0
    ok = nonneg_ok and location_ok and ratio_ok and elapsed <= 1800
    report(6, "difference-heatmap reproduction (30x30, three shots)", ok,
           f"AD min diff {min_diff:.2e} (>= -1e-9: {nonneg_ok}), "
           f"AD peak {peak_distance:.1f} cells from anti-diagonal (<= 2: {location_ok}), "
           f"bit-flip/depolarizing max ratio {bf_max / dp_max:.2f} (>= 5: {ratio_ok}), "
           f"{elapsed:.0f}s (budget 1800s)")


def test_criterion_7_monte_carlo_consistency():
    t0 = time.time()
    trials = 100000
    sched = InputSchedule.flat([0.3, 0.7, 0.5])
    worst_ratio = 0.0
    seed = 7
    for family in FAMILIES:
        scale = ETA_MAX[family]
        for f0, f1 in REFERENCE_POINTS:
            spec0 = ChannelSpec(family, f0 * scale)
            spec1 = ChannelSpec(family, f1 * scale)
            for kind in StrategyKind:
                p = strategy_value(kind, spec0, spec1, sched)
                freq = simulate_protocol(kind, spec0, spec1, sched, trials, seed)
                bound = 3.0 * math.sqrt(p * (1.0 - p) / trials)
                worst_ratio = max(worst_ratio, abs(freq - p) / bound)
                seed += 1
    elapsed = time.time() - t0
    ok = worst_ratio <= 1.0 and elapsed <= 120
    report(7, "Monte Carlo consistency (1e5 trials, 3 shots)", ok,
           f"worst |freq-p| at {worst_ratio:.2f} of the 3-sigma bound, "
           f"{elapsed:.1f}s (budget 120s)")


def test_criterion_8_depolarizing_input_independence():
    rng = np.random.default_rng(88)
    spec0 = ChannelSpec(ChannelFamily.DEPOLARIZING, 0.75)
    spec1 = ChannelSpec(ChannelFamily.DEPOLARIZING, 0.4)
    evaluators = {"global": eval_global, "bayesian": eval_bayesian, "markovian": eval_markovian}
    worst = 0.0
    for name, evaluator in evaluators.items():
        vals = [
            evaluator(spec0, spec1, InputSchedule.flat(rng.random(3))).p_succ
            for _ in range(20)
        ]
        worst = max(worst, max(vals) - min(vals))
    ok = worst <= 1e-10
    report(8, "depolarizing input independence", ok, f"max spread {worst:.2e} (tol 1e-10)")


def test_criterion_9_damping_optimal_input():
    # Entered as fractions of pi/2; every pair sits in the regime
    # cos(eta0) + cos(eta1) < 1/sqrt(2) where the optimum is interior.
    fraction_pairs = ((0.95, 0.75), (0.9, 0.7), (0.8, 0.75), (0.95, 0.6), (0.86, 0.76), (0.92, 0.64))
    t0 = time.time()
    worst_scan = 0.0
    worst_opt = 0.0
    for f0, f1 in fraction_pairs:
        e0, e1 = f0 * HALF_PI, f1 * HALF_PI
        gamma = math.cos(e0) + math.cos(e1)
        assert gamma < 1.0 / math.sqrt(2.0)
        r_formula = 1.0 / (2.0 * (1.0 - gamma**2))
        spec0 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, e0)
        spec1 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, e1)

        def engine(r):
            return markovian_value(spec0, spec1, InputSchedule.flat([r]))

        # independent confirmation of the stationary-point inference
        scan = np.linspace(0.0, 1.0, 20001)
        r_scan = scan[int(np.argmax([engine(float(r)) for r in scan]))]
        worst_scan = max(worst_scan, abs(r_scan - r_formula))
        res = maximize(
            lambda x: engine(float(x[0])),
            1,
            OptimizerConfig(value_tol=1e-14, seed=9),
        )
        worst_opt = max(worst_opt, abs(res.best_point[0] - r_formula))
    elapsed = time.time() - t0
    ok = worst_scan <= 2e-4 and worst_opt <= 1e-5
    report(9, "damping optimal input r = 1/(2(1-gamma^2))", ok,
           f"dense-scan dev {worst_scan:.2e} (tol 2e-4), optimizer dev {worst_opt:.2e} "
           f"(tol 1e-5), {elapsed:.1f}s")
