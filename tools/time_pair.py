"""Time a parent and a changed checkout of qcdisc in one interpreter, alternating.

Usage, from anywhere:

    python3 tools/time_pair.py --parent PATH --change PATH --plan walks|curves|sweeps
        [--rounds R] [--seed S] [--jobs J] [--out FILE]

Imports each checkout's ``src/qcdisc`` from a temporary copy, as
``qcdisc_parent`` and ``qcdisc_change``, with one BLAS thread. Each round
times every entry on both sides back to back, their passes alternating, each
side first in half of the rounds (R is even), with the garbage collector off
during a sample, as in ``timeit``. The self-pair ``--parent X --change X``
is a baseline: its ratios show the noise floor.

``walks`` (R = 16 by default) times ``bayesian_value``, ``markovian_value``,
``eval_bayesian`` and ``eval_markovian`` at the feedforward (strategy, mode,
shots) triples of ``EVALUATE_PLAN`` in the parent's perfbench/workloads.py,
and ``simulate_protocol`` at its entries with ``SIM_TRIALS`` trials and seed
S, each on one schedule per family at (eta0, eta1) = (0.75, 0.4), r drawn
from [0.05, 0.95] with seed S. A sample spans at least 2 ms, with as many
calls on both sides, and reads in microseconds per call. ``curves`` (R = 4)
times the criterion-5 ``run_curve`` of each family at (0.75, 0.4) and
(0.95, 0.6), n = 1..6, seed 17, with J jobs, in seconds, and records each
side's evaluations per strategy and rows. ``sweeps`` (R = 24) times the
``run_sweep_diff`` of each family on perfbench's grid (``0:1:SWEEP_STEPS`` of
the parent's perfbench/workloads.py), seed S, one job, in seconds, with each
side's time inside the objective that ``values_objective`` returns and
outside it, records each side's objective calls and rows of one round per
family, which repeat exactly, and records whether both sides' rows and
counts are equal. The JSON record holds, per entry, both sides' samples and
medians and the median and quartiles of the per-round change/parent ratio,
and the machine; for ``sweeps`` also a ``split`` table of the same kind for
the time inside and outside the objective, per family and summed over the
families (``all``), and the ``counts``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
FAMILIES = {"amplitude-damping": math.pi / 2, "bit-flip": 1.0, "depolarizing": 1.0}
FEEDFORWARD = ("bayesian", "markovian")
MIN_SAMPLE_S = 0.002


def _cpu() -> str:
    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    names = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    return names[0] if names else platform.processor()


def _literal(workloads: Path, name: str):
    """The literal value assigned to ``name`` at the top of ``workloads``."""
    for node in ast.parse(workloads.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", 0) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise SystemExit(f"error: no {name} in {workloads}")


def _load(checkout: Path, name: str, tmp: Path):
    """``checkout/src/qcdisc``, copied into ``tmp`` and imported as ``name``."""
    copy = (tmp / name).resolve()
    shutil.copytree(checkout / "src" / "qcdisc", copy, ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    importlib.import_module(f"{name}.experiments")  # and so every module but __main__
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == name]:
        if copy not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"error: {module.__name__} came from {module.__file__}, not {copy}")
    return package


def _pass(func, cases):
    for case in cases:
        func(*case)


def _walk_entries(packages, plan, trials: int, seed: int) -> dict:
    """Per walks entry, one pass over its cases on each side."""
    rng = np.random.default_rng(seed)

    def draw(kind, mode, n):
        widths = packages[0].strategies.level_widths(kind, mode, n)
        return [rng.uniform(0.05, 0.95, n) if mode == "flat"
                else [rng.uniform(0.05, 0.95, w) for w in widths] for _ in FAMILIES]

    def passes(funcs, mode, r):
        return [functools.partial(_pass, func, [
            (*(p.channels.ChannelSpec(family, f * scale) for f in (0.75, 0.4)),
             getattr(p.strategies.InputSchedule, mode)(r_family))
            for (family, scale), r_family in zip(FAMILIES.items(), r)
        ]) for func, p in zip(funcs, packages)]

    entries = {}
    for kind, mode, n in sorted({(k, m, n) for _, k, m, shots in plan if k in FEEDFORWARD
                                 for n in shots}):
        r = draw(kind, mode, n)  # one schedule per family, for the value and the tree
        for name in (f"{kind}_value", f"eval_{kind}"):
            entries[f"{name}/{mode}/n={n}"] = passes(
                [getattr(p.strategies, name) for p in packages], mode, r)
    for kind, mode, n in sorted({(k, m, n) for f, k, m, shots in plan if f == "simulate_protocol"
                                 for n in shots}):
        funcs = [functools.partial(p.strategies.simulate_protocol, kind, trials=trials, seed=seed)
                 for p in packages]
        entries[f"simulate_protocol/{kind}/{mode}/n={n}"] = passes(funcs, mode, draw(kind, mode, n))
    return entries


def _timed_objectives(experiments, clock: list) -> None:
    """Make ``experiments.values_objective`` return objectives that add the
    seconds they spend to ``clock[0]``, and their calls and rows to
    ``clock[1]`` and ``clock[2]``."""
    build = experiments.values_objective

    def values_objective(*args, **kwargs):
        objective = build(*args, **kwargs)

        def timed(problem, r_rows):
            t0 = time.perf_counter()
            try:
                return objective(problem, r_rows)
            finally:
                clock[0] += time.perf_counter() - t0
                clock[1] += 1
                clock[2] += len(problem)

        return timed

    experiments.values_objective = values_objective


def _summary(parent: list, change: list) -> dict:
    """Both sides' samples and medians, and the per-round change/parent ratio."""
    q1, med, q3 = statistics.quantiles([c / p for p, c in zip(parent, change)], n=4,
                                       method="inclusive")
    return {"parent": parent, "change": change, "parent_median": statistics.median(parent),
            "change_median": statistics.median(change), "ratio_median": med,
            "ratio_quartiles": [q1, q3]}


def _repeats(runs) -> int:
    """Calls per sample, for the faster side's fastest of five passes to span MIN_SAMPLE_S."""
    fastest = math.inf
    for run in runs * 5:
        t0 = time.perf_counter()
        run()
        fastest = min(fastest, time.perf_counter() - t0)
    return max(1, math.ceil(MIN_SAMPLE_S / fastest))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent qcdisc checkout")
    ap.add_argument("--change", required=True, help="root of the changed qcdisc checkout")
    ap.add_argument("--plan", required=True, choices=("walks", "curves", "sweeps"))
    ap.add_argument("--rounds", type=int,
                    help="even; 16 for walks, 4 for curves and 24 for sweeps by default")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--jobs", type=int, default=1, help="worker processes of a curve run")
    ap.add_argument("--out", help="JSON record to write")
    args = ap.parse_args(argv)
    rounds = args.rounds or {"walks": 16, "curves": 4, "sweeps": 24}[args.plan]
    if rounds < 2 or rounds % 2 or args.jobs < 1:
        raise SystemExit("error: --rounds must be even and >= 2, and --jobs >= 1")
    if args.plan == "sweeps" and args.jobs != 1:
        # Workers would run objectives that this process neither times nor counts.
        raise SystemExit("error: --plan sweeps measures the objective in this process: --jobs 1")
    roots = [Path(args.parent).resolve(), Path(args.change).resolve()]
    record = {"plan": args.plan, **dict(zip(SIDES, map(str, roots))), "rounds": rounds,
              "seed": args.seed, "jobs": args.jobs}
    # Each side's seconds, calls and rows inside the objective, sweeps only.
    clocks = ([0.0, 0, 0], [0.0, 0, 0])

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)  # spawned --jobs workers inherit it
        packages = [_load(root, f"qcdisc_{side}", Path(tmp)) for root, side in zip(roots, SIDES)]
        if args.plan == "walks":
            workloads = roots[0] / "perfbench" / "workloads.py"
            record.update(sim_trials=_literal(workloads, "SIM_TRIALS"), unit="us per call")
            entries = {label: (runs, _repeats(runs), 1e6 / len(FAMILIES)) for label, runs in
                       _walk_entries(packages, _literal(workloads, "EVALUATE_PLAN"),
                                     record["sim_trials"], args.seed).items()}
        elif args.plan == "curves":
            record["unit"] = "s per run"
            entries = {family: ([functools.partial(e.run_curve, e.make_config(
                family, points=((0.75, 0.4), (0.95, 0.6)), n_max=6, seed=17, jobs=args.jobs))
                for e in (p.experiments for p in packages)], 1, 1.0) for family in FAMILIES}
        else:
            steps = _literal(roots[0] / "perfbench" / "workloads.py", "SWEEP_STEPS")
            record.update(grid=f"0:1:{steps}", unit="s per run")
            for package, clock in zip(packages, clocks):
                _timed_objectives(package.experiments, clock)
            entries = {family: ([functools.partial(e.run_sweep_diff, e.make_config(
                family, grid=record["grid"], seed=args.seed))
                for e in (p.experiments for p in packages)], 1, 1.0) for family in FAMILIES}
        samples = {label: ([], []) for label in entries}
        inside = {label: ([], []) for label in entries}
        results = {}  # each side's result of the first round, per entry
        counts = {}  # each side's objective calls and rows of the first round, per entry
        for k in range(rounds):
            for label, (runs, reps, scale) in entries.items():
                spent = [0.0, 0.0]
                for clock in clocks:
                    clock[:] = [0.0, 0, 0]
                gc.disable()
                for _ in range(reps):  # the two sides' passes alternate within a sample too
                    for i in (0, 1) if k % 2 == 0 else (1, 0):
                        t0 = time.perf_counter()
                        result = runs[i]()
                        spent[i] += time.perf_counter() - t0
                        results.setdefault((label, SIDES[i]), result)
                gc.enable()
                for i in (0, 1):
                    samples[label][i].append(spent[i] / reps * scale)
                    inside[label][i].append(clocks[i][0] / reps * scale)
                    counts.setdefault((label, SIDES[i]), {
                        "objective_calls": clocks[i][1] // reps, "rows": clocks[i][2] // reps})

    record["machine"] = {"cpu": _cpu(), "nproc": os.cpu_count(), "blas_threads": 1,
                         "python": platform.python_version(), "numpy": np.__version__}
    table = record["entries"] = {}

    def show(label, entry):
        q1, q3 = entry["ratio_quartiles"]
        print(f"{label}: parent {entry['parent_median']:.4g}, change {entry['change_median']:.4g} "
              f"{record['unit']}; change/parent {entry['ratio_median']:.3f} [{q1:.3f}, {q3:.3f}]",
              flush=True)

    for label, sides in samples.items():
        table[label] = {"calls_per_sample": entries[label][1], **_summary(*sides)}
        show(label, table[label])
    record["ratio_median"] = statistics.median(e["ratio_median"] for e in table.values())
    print(f"median change/parent over {len(entries)} entries: {record['ratio_median']:.3f}")
    if args.plan == "sweeps":
        outside = {label: tuple([t - o for t, o in zip(total, obj)]
                                for total, obj in zip(samples[label], inside[label]))
                   for label in entries}
        split = {}
        for part, by_label in (("objective", inside), ("outside", outside)):
            split.update({f"{label}/{part}": by_label[label] for label in entries})
        for part, by_label in (("total", samples), ("objective", inside), ("outside", outside)):
            # Per side, each round's sum over the families.
            split[f"all/{part}"] = tuple([sum(r) for r in zip(*(by_label[label][i] for label in entries))]
                                         for i in (0, 1))
        record["split"] = {label: _summary(*sides) for label, sides in split.items()}
        for label, entry in record["split"].items():
            show(label, entry)
        rows = {side: {family: [dataclasses.astuple(row) for row in results[family, side]]
                       for family in FAMILIES} for side in SIDES}
        record["rows_equal"] = rows["parent"] == rows["change"]
        print(f"rows equal on both sides: {record['rows_equal']}")
        by_side = record["counts"] = {side: {family: counts[family, side] for family in FAMILIES}
                                      for side in SIDES}
        for side, by_family in by_side.items():
            print(f"{side} objective calls and rows: {by_family}")
        record["counts_equal"] = by_side["parent"] == by_side["change"]
        print(f"counts equal on both sides: {record['counts_equal']}")
    if args.plan == "curves":
        by_side = record["curves"] = {side: {family: {
            "evaluations": {s: sum(r.evaluations for r in results[family, side] if r.strategy == s)
                            for s in ("global", *FEEDFORWARD)},
            "rows": [{"eta0": r.eta0, "eta1": r.eta1, "n": r.n, "strategy": r.strategy,
                      "p_succ": r.p_succ, "r_values": list(r.r_values),
                      "evaluations": r.evaluations} for r in results[family, side]],
        } for family in FAMILIES} for side in SIDES}
        for side, curves in by_side.items():
            print(f"{side} evaluations: {[curves[family]['evaluations'] for family in FAMILIES]}")
        record["rows_equal"] = by_side["parent"] == by_side["change"]
        print(f"rows equal on both sides: {record['rows_equal']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
