import math
import re

import numpy as np
import pytest

from qcdisc.channels import ChannelFamily, ChannelSpec
from qcdisc.optimizer import (
    _INITIAL_STEP,
    OptimizerConfig,
    OptResult,
    _starts,
    maximize,
    maximize_batch,
)
from qcdisc.strategies import InputSchedule, markovian_value

TIGHT = OptimizerConfig(value_tol=1e-14)


def closed_form_damping(eta0, eta1):
    """Piecewise one-shot optimum for the damping family, derived directly."""
    gamma = math.cos(eta0) + math.cos(eta1)
    if gamma < 1 / math.sqrt(2):
        return 0.25 * (2 + (math.cos(eta1) - math.cos(eta0)) / math.sqrt(1 - gamma**2))
    return 0.5 * (math.sin(eta0) ** 2 + math.cos(eta1) ** 2)


def test_quadratic_1d():
    res = maximize(lambda x: -((x[0] - 0.3) ** 2), 1, TIGHT)
    assert abs(res.best_point[0] - 0.3) <= 1e-6
    assert res.converged


def test_quadratic_2d():
    res = maximize(
        lambda x: -((x[0] - 0.25) ** 2) - 2 * (x[1] - 0.75) ** 2,
        2,
        TIGHT,
    )
    np.testing.assert_allclose(res.best_point, [0.25, 0.75], atol=1e-6)


def test_boundary_optimum_found_exactly():
    res = maximize(lambda x: x[0] + x[1], 2)
    np.testing.assert_allclose(res.best_point, [1.0, 1.0], atol=1e-9)
    assert abs(res.best_value - 2.0) <= 1e-12


def test_deterministic_for_fixed_seed():
    def f(x):
        return math.sin(5 * x[0]) * math.cos(3 * x[1]) + x[0]

    a = maximize(f, 2, OptimizerConfig(seed=5))
    b = maximize(f, 2, OptimizerConfig(seed=5))
    assert np.array_equal(a.best_point, b.best_point)
    assert a.best_value == b.best_value
    assert a.evaluations == b.evaluations


def test_improves_on_every_lattice_start():
    def f(x):
        return -((x[0] - 0.4) ** 2) - (x[1] - 0.9) ** 2

    res = maximize(f, 2)
    for u in (0.0, 0.5, 1.0):
        for v in (0.0, 0.5, 1.0):
            assert res.best_value >= f((u, v)) - 1e-15


def test_best_value_reevaluates():
    def f(x):
        return -((x[0] - 0.6) ** 2)

    res = maximize(f, 1, TIGHT)
    assert abs(res.best_value - f(res.best_point)) <= 1e-12


def test_budget_exhaustion_sets_converged_false():
    res = maximize(
        lambda x: -((x[0] - 0.3) ** 2), 1, OptimizerConfig(max_evals=4)
    )
    assert not res.converged


@pytest.mark.parametrize("setting,value", [
    ("value_tol", 0.0),
    ("value_tol", -1.0),
    ("value_tol", math.inf),
    ("value_tol", math.nan),
    ("max_evals", 0),
    ("max_starts", 2),
    ("seed", -1),
])
def test_config_rejects_settings_no_search_can_run(setting, value):
    # A tolerance no spread can meet would run every start to the cap; a
    # search starts from three fixed points; numpy takes no negative seed.
    with pytest.raises(ValueError, match=f"^{setting} must be"):
        OptimizerConfig(**{setting: value})


@pytest.mark.parametrize("setting,value", [
    ("max_starts", 3.5),
    ("seed", 1.5),
    ("max_evals", 10.5),
    ("max_evals", True),
    ("max_evals", math.inf),
])
def test_config_refuses_integer_settings_that_are_no_integers(setting, value):
    # A fractional start count or seed failed late, inside numpy; a budget
    # of 10.5 ran 104 evaluations at d = 2, and True ran a budget of 1.
    with pytest.raises(ValueError, match=f"^{setting} must be an integer, got {value!r}$"):
        OptimizerConfig(**{setting: value})


@pytest.mark.parametrize("setting", ["max_evals", "max_starts"])
def test_config_refuses_counts_numpy_cannot_hold(setting):
    # numpy counts in a C long: a budget of 2**63 passed the config and
    # failed a 2-D search in numpy's int64 casting. A seed may be any size.
    with pytest.raises(ValueError, match=rf"^{setting} must be < 2\*\*63, got {2**63}$"):
        OptimizerConfig(**{setting: 2**63})
    assert OptimizerConfig(seed=2**63).seed == 2**63


def test_config_takes_numpy_integers():
    cfg = OptimizerConfig(max_evals=np.int64(50), max_starts=np.int32(9), seed=np.uint8(3))
    assert maximize(lambda x: -abs(x[0] - 0.3), 1, cfg).evaluations <= 9 * 50


def test_maximize_batch_of_no_problems_calls_no_objective():
    def objective(problem, x):
        raise AssertionError("called")

    assert maximize_batch(objective, 2, []) == []


def test_extra_starts_are_used():
    # A spike the lattice cannot see; the warm start lands on it.
    def f(x):
        return 1.0 if abs(x[0] - 0.123456) < 1e-9 else 0.0

    cfg = OptimizerConfig(extra_starts=((0.123456,),), max_evals=50)
    res = maximize(f, 1, cfg)
    assert res.best_value == 1.0


@pytest.mark.parametrize("start", [(1.5, float("nan")), (-0.25, 0.5), (0.5, math.inf)])
def test_warm_starts_outside_the_box_are_refused_by_name(start):
    # A start at 1.5 was clamped to 1 unsaid; a NaN start ran to its budget
    # and then won the search with the value NaN.
    refusal = r"^extra_starts must be finite points of \[0, 1\]\^d, got " + re.escape(repr(start))
    with pytest.raises(ValueError, match=refusal + "$"):
        maximize(lambda x: -float(sum(x)), 2, OptimizerConfig(extra_starts=((0.5, 0.5), start)))


def test_latin_hypercube_path_high_dimension():
    # 3^5 lattice points exceed the start cap; the sampled starts must stay
    # in the box and the search must remain deterministic.
    def f(x):
        return -np.sum((np.asarray(x) - 0.5) ** 2)

    a = maximize(f, 5, OptimizerConfig(seed=2, max_evals=400))
    b = maximize(f, 5, OptimizerConfig(seed=2, max_evals=400))
    assert np.array_equal(a.best_point, b.best_point)
    assert np.all(a.best_point >= 0.0) and np.all(a.best_point <= 1.0)
    assert abs(a.best_value) <= 1e-6


def test_domain_validation():
    with pytest.raises(ValueError):
        maximize(lambda x: 0.0, 0)


def test_bit_flip_one_shot_optimum_at_corner():
    spec0 = ChannelSpec(ChannelFamily.BIT_FLIP, 0.75)
    spec1 = ChannelSpec(ChannelFamily.BIT_FLIP, 0.4)
    res = maximize(
        lambda x: markovian_value(spec0, spec1, InputSchedule.flat(x)),
        1,
        TIGHT,
    )
    assert min(res.best_point[0], 1 - res.best_point[0]) <= 1e-6
    assert abs(res.best_value - 0.675) <= 1e-9


def test_damping_one_shot_matches_piecewise_form():
    # 8x8 grid spanning both regimes of the piecewise optimum.
    etas = np.linspace(0.05, 0.95, 8) * math.pi / 2
    worst = 0.0
    for eta0 in etas:
        for eta1 in etas:
            if eta0 <= eta1:
                continue
            spec0 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, float(eta0))
            spec1 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, float(eta1))
            res = maximize(
                lambda x: markovian_value(spec0, spec1, InputSchedule.flat(x)),
                1,
            )
            worst = max(worst, abs(res.best_value - closed_form_damping(eta0, eta1)))
    assert worst <= 1e-6


def test_damping_interior_optimum_location():
    # gamma < 1/sqrt(2) puts the best input strictly inside the box at
    # r = 1 / (2 (1 - gamma^2)); confirmed against a dense scan.
    eta0, eta1 = 1.35, 1.20
    spec0 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, eta0)
    spec1 = ChannelSpec(ChannelFamily.AMPLITUDE_DAMPING, eta1)

    def objective(x):
        return markovian_value(spec0, spec1, InputSchedule.flat(x))

    gamma = math.cos(eta0) + math.cos(eta1)
    assert gamma < 1 / math.sqrt(2)
    r_formula = 1 / (2 * (1 - gamma**2))
    scan = np.linspace(0.0, 1.0, 20001)
    r_scan = scan[int(np.argmax([objective((r,)) for r in scan]))]
    assert abs(r_scan - r_formula) <= 1e-4
    res = maximize(objective, 1, TIGHT)
    assert abs(res.best_point[0] - r_formula) <= 1e-5


# ---------------------------------------------------------------------------
# lockstep search against the sequential reference


def reference_maximize(objective, d, cfg, stats=None):
    """Multistart Nelder-Mead one start and one point at a time, as the
    package ran it before the lockstep search. ``stats["cut_shrinks"]``
    counts shrinks that ran out of budget part way."""
    lo = np.zeros(d)
    hi = np.ones(d)
    best_x, best_g, total_evals, all_converged = None, math.inf, 0, True
    for start in _starts(d, cfg):
        x, gx, evals, conv = _reference_start(
            lambda x: -objective(x), np.asarray(start, dtype=float), lo, hi, cfg, stats
        )
        total_evals += evals
        all_converged = all_converged and conv
        if gx < best_g:
            best_x, best_g = x, gx
    return OptResult(best_x, -best_g, total_evals, all_converged)


def _reference_start(g, x0, lo, hi, cfg, stats):
    d = x0.size
    step = _INITIAL_STEP * (hi - lo)
    simplex = [np.clip(x0, lo, hi)]
    for i in range(d):
        x = simplex[0].copy()
        x[i] = x[i] + step[i] if x[i] + step[i] <= hi[i] else x[i] - step[i]
        simplex.append(x)
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return g(x)

    values = [call(x) for x in simplex]
    converged = False
    while evals < cfg.max_evals:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < cfg.value_tol:
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = np.clip(centroid + 1.0 * (centroid - simplex[-1]), lo, hi)
        fr = call(reflected)
        if values[0] <= fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
            continue
        if fr < values[0]:
            expanded = np.clip(centroid + 2.0 * (centroid - simplex[-1]), lo, hi)
            fe = call(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
            continue
        contracted = np.clip(centroid + 0.5 * (simplex[-1] - centroid), lo, hi)
        fc = call(contracted)
        if fc < values[-1]:
            simplex[-1], values[-1] = contracted, fc
            continue
        best = simplex[0]
        for i in range(1, d + 1):
            simplex[i] = np.clip(best + 0.5 * (simplex[i] - best), lo, hi)
            values[i] = call(simplex[i])
            if evals >= cfg.max_evals:
                if stats is not None and i < d:
                    stats["cut_shrinks"] = stats.get("cut_shrinks", 0) + 1
                break
    i_best = int(np.argmin(values))
    return simplex[i_best], values[i_best], evals, converged


OBJECTIVES = (
    lambda x: -float(np.sum((np.asarray(x) - 0.3) ** 2)),
    lambda x: math.sin(5 * x[0]) * math.cos(3 * x[-1]) + x[0],
    lambda x: -abs(x[0] - 0.123) - 0.1 * float(np.sum(np.cos(7 * np.asarray(x)))),
    # A plateau: exact ties, which the sort must keep in their stable order.
    lambda x: -math.floor(4 * x[0]) / 4 - math.floor(4 * x[-1]) / 8,
)


def assert_same_result(got, want):
    assert np.array_equal(got.best_point, want.best_point)
    assert got.best_value == want.best_value
    assert got.evaluations == want.evaluations
    assert got.converged == want.converged


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_maximize_matches_sequential_reference(d):
    # Lattice and Latin-hypercube starts, extra starts, tight and cut budgets.
    configs = (
        OptimizerConfig(max_evals=300),
        OptimizerConfig(value_tol=1e-14, max_evals=500, seed=3, max_starts=12),
        OptimizerConfig(max_evals=2 * d + 5, max_starts=9),
        OptimizerConfig(extra_starts=((0.2,) * d, (0.9,) * d), max_starts=12),
    )
    for objective in OBJECTIVES:
        for cfg in configs:
            want = reference_maximize(objective, d, cfg)
            assert_same_result(maximize(objective, d, cfg), want)


def test_budget_cut_mid_shrink_matches_reference():
    stats = {}
    cut = 0
    for d in (2, 3):
        for budget in range(d + 1, 60):
            cfg = OptimizerConfig(max_evals=budget, max_starts=9)
            for objective in OBJECTIVES:
                before = stats.get("cut_shrinks", 0)
                want = reference_maximize(objective, d, cfg, stats)
                cut += stats.get("cut_shrinks", 0) > before
                assert_same_result(maximize(objective, d, cfg), want)
    assert cut > 0  # the scan did reach budgets that run out inside a shrink


def test_maximize_batch_solves_each_problem_as_alone():
    centers = np.array([0.1, 0.5, 0.8])
    cfgs = [OptimizerConfig(seed=s, max_evals=m) for s, m in ((0, 20000), (1, 40), (2, 20000))]

    def objective(problem, x):
        return -np.sum((x - centers[problem, None]) ** 2, axis=1)

    results = maximize_batch(objective, 2, cfgs)
    for j, (res, cfg) in enumerate(zip(results, cfgs)):
        alone = maximize(lambda x: -float(np.sum((x - centers[j]) ** 2)), 2, cfg)
        assert_same_result(res, alone)
    assert results[0].converged and not results[1].converged
