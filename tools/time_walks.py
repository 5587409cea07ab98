"""Time the scalar feedforward evaluators and the simulator of one checkout.

Usage, from anywhere:

    python3 tools/time_walks.py --checkout PATH [--rounds R] [--seed S] [--out FILE]

Reads the (strategy, schedule mode, shot count) triples of the Bayesian and
Markovian entries of ``EVALUATE_PLAN`` in ``PATH/perfbench/workloads.py``,
and times ``bayesian_value``, ``markovian_value``, ``eval_bayesian`` and
``eval_markovian`` at each; it also times ``simulate_protocol`` at the
triples of the plan's ``simulate_protocol`` entries, with ``SIM_TRIALS``
trials and the seed S. qcdisc is imported from ``PATH/src``, with BLAS
pinned to one thread before numpy loads. Each triple gets one seeded
schedule per family at the benchmark's point (eta0, eta1) = (0.75, 0.4) in
the family's units, r drawn from [0.05, 0.95] as the benchmark draws it. A
round calls every function once on every schedule of every triple; the
record holds, per function and triple, the median over the rounds of the
mean time per call in microseconds. Prints one line per entry and writes a
JSON record.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

FAMILIES = {"amplitude-damping": math.pi / 2, "bit-flip": 1.0, "depolarizing": 1.0}
POINT = (0.75, 0.4)
FEEDFORWARD = ("bayesian", "markovian")


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _literal(workloads: Path, name: str):
    """The literal value assigned to ``name`` at the top of ``workloads``."""
    for node in ast.parse(workloads.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit(f"error: no {name} in {workloads}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", required=True, help="root of the qcdisc checkout to time")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", help="JSON record to write")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        raise SystemExit("error: --rounds must be >= 1")

    root = Path(args.checkout).resolve()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import qcdisc
    from qcdisc import strategies
    from qcdisc.channels import ChannelSpec

    if Path(qcdisc.__file__).resolve().parent != root / "src" / "qcdisc":
        raise SystemExit(f"error: imported qcdisc from {qcdisc.__file__}, not {root / 'src'}")
    workloads = root / "perfbench" / "workloads.py"
    trials = _literal(workloads, "SIM_TRIALS")
    rng = np.random.default_rng(args.seed)
    record = {
        "checkout": str(root),
        "rounds": args.rounds,
        "seed": args.seed,
        "sim_trials": trials,
        "machine": {
            "cpu": _cpu(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
        },
        "us_per_call": {},
    }

    def cases_at(kind, mode, n):
        """One seeded schedule per family for the triple."""
        cases = []
        for family, scale in FAMILIES.items():
            spec0, spec1 = (ChannelSpec(family, f * scale) for f in POINT)
            if mode == "flat":
                sched = strategies.InputSchedule.flat(rng.uniform(0.05, 0.95, n))
            else:
                widths = [2**k if kind == "bayesian" else min(2**k, 2) for k in range(n)]
                sched = strategies.InputSchedule.adaptive([rng.uniform(0.05, 0.95, w) for w in widths])
            cases.append((spec0, spec1, sched))
        return cases

    plan = _literal(workloads, "EVALUATE_PLAN")
    entries = {}
    walks = {(kind, mode, n) for _, kind, mode, shots in plan if kind in FEEDFORWARD for n in shots}
    for kind, mode, n in sorted(walks):
        cases = cases_at(kind, mode, n)
        for name in (f"{kind}_value", f"eval_{kind}"):
            entries[f"{name}/{mode}/n={n}"] = (getattr(strategies, name), cases)
    sims = {(kind, mode, n) for func, kind, mode, shots in plan if func == "simulate_protocol"
            for n in shots}
    for kind, mode, n in sorted(sims):
        entries[f"simulate_protocol/{kind}/{mode}/n={n}"] = (
            functools.partial(strategies.simulate_protocol, kind, trials=trials, seed=args.seed),
            cases_at(kind, mode, n),
        )
    for func, cases in entries.values():  # untimed, so that lazy set-up is not counted
        for case in cases:
            func(*case)
    # Every round times every entry, so that a drift in machine speed
    # reaches all entries alike.
    means = {label: [] for label in entries}
    for _ in range(args.rounds):
        for label, (func, cases) in entries.items():
            t0 = time.perf_counter()
            for case in cases:
                func(*case)
            means[label].append((time.perf_counter() - t0) / len(cases) * 1e6)
    for label, samples in means.items():
        record["us_per_call"][label] = statistics.median(samples)
        print(f"{label}: {record['us_per_call'][label]:.1f} us")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
