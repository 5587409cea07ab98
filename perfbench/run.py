"""Benchmark of qcdisc: the paper's difference map and direct evaluator calls,
checked against an independent oracle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,evaluate} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it measures whole rounds of the workload for about S
seconds and reports the end-to-end metrics; with ``--trace 1`` it alternates
``TRACE_ROUNDS`` untraced and traced rounds and reports the per-layer
metrics, summed over the traced rounds. Metric names and units come from
BENCHMARK.json. Human-readable lines go first; the last line of standard
output is one JSON object. The exit code is 0 only if every op not listed in
``workloads.KNOWN_FAILURES`` passed its checks.

qcdisc is imported from ``src/`` of the checkout and nowhere else. BLAS is
pinned to one thread before numpy loads, and every experiment runs with
``--jobs 1``: on a small shared machine a process pool or BLAS threads
measure the scheduler, not the program.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sweep", "evaluate")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 7
# Rounds per traced run, fixed so that its counts repeat exactly; an
# evaluate round is short, so it takes several to rise above timer noise.
TRACE_ROUNDS = {"sweep": 1, "evaluate": 40}


def set_up(name: str, seed: int, csv_path):
    """Import the checkout's qcdisc and set the workload up: its calls and
    the names of the ops allowed to fail."""
    sys.path.insert(0, str(SRC))
    import qcdisc
    import workloads

    if Path(qcdisc.__file__).resolve().parent != SRC / "qcdisc":
        raise SystemExit(f"error: imported qcdisc from {qcdisc.__file__}, not {SRC}")
    return getattr(workloads, f"make_{name}")(seed, csv_path), workloads.KNOWN_FAILURES


def probe_setup_s(name: str, seed: int) -> list:
    """Wall time from starting a fresh interpreter until it has set up."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


class Tally:
    """Ops attempted and failed, timed per round, plus every problem found."""

    def __init__(self, known_failures):
        self.known = known_failures
        self.attempted = 0
        self.failed = 0
        self.failed_names = set()
        self.fatal = []
        self.rounds = []  # (ops completed, wall s, cpu s) per round

    def round(self, calls):
        ops, wall, cpu = 0, 0.0, 0.0
        children0 = _children_cpu()
        for call in calls:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # a failed op, reported below
                out = exc
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if isinstance(out, Exception):
                problems = {op: f"{type(out).__name__}: {out}" for op in call.ops}
            else:
                problems = call.check(out)
            failed = [op for op in call.ops if op in problems]
            self.attempted += len(call.ops)
            self.failed += len(failed)
            ops += len(call.ops) - len(failed)
            for op, problem in problems.items():
                if op in self.known:
                    self.failed_names.add(op)
                else:
                    self.fatal.append(f"{op}: {problem}")
        cpu += _children_cpu() - children0
        self.rounds.append((ops, wall, cpu))
        return wall


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name, seed, seconds, csv_path):
    setup = probe_setup_s(name, seed)
    calls, known = set_up(name, seed, csv_path)
    tally = Tally(known)
    # Whole rounds until the next one would end further from the deadline
    # than stopping now: a sweep round is several seconds long.
    start = time.perf_counter()
    while not tally.rounds or time.perf_counter() - start + last / 2 < seconds:
        last = tally.round(calls)
    # The machine's speed shifts between regimes every few seconds, so the
    # rates are totals over the whole window: a median of rounds jumps
    # between regimes, and a fast quantile of rounds spreads more still.
    ops, wall, cpu = (sum(col) for col in zip(*tally.rounds))
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops / wall,
        "cpu_s_per_op": cpu / ops,
        "peak_rss_mb": peak_rss_mb(),
    }
    return tally, metrics


def _evaluations(result):
    return "optimizer.maximize.evals", result.evaluations


def traced(name, seed, csv_path):
    calls, known = set_up(name, seed, csv_path)
    import qcdisc.cli
    import qcdisc.experiments
    import qcdisc.helstrom
    import qcdisc.strategies as strategies

    tally = Tally(known)
    tracer = Tracer()
    targets = [
        (strategies, "output_entries", "channels.output_entries"),
        (strategies, "success_and_traces", "helstrom.success_and_traces"),
        (qcdisc.helstrom, "eig2_entries", "linalg.eig2_entries"),
        (strategies, "bayesian_value", "strategies.bayesian_value"),
        (strategies, "markovian_value", "strategies.markovian_value"),
        (strategies, "global_value", "strategies.global_value"),
        (qcdisc.experiments, "strategy_value", "strategies.strategy_value"),
        (strategies, "eval_bayesian", "strategies.eval_tree"),
        (strategies, "eval_markovian", "strategies.eval_tree"),
        (strategies, "eval_global", "strategies.eval_tree"),
        (strategies, "simulate_protocol", "strategies.simulate_protocol"),
        (strategies.InputSchedule, "flat", "strategies.schedule"),
        (strategies.InputSchedule, "adaptive", "strategies.schedule"),
        (qcdisc.experiments, "maximize", "optimizer.maximize"),
        (qcdisc.experiments, "optimize_strategy", "experiments.optimize_strategy"),
        (qcdisc.cli, "run_sweep_diff", "experiments.run"),
        (qcdisc.cli, "main", "cli.main"),
    ]
    # Untraced and traced rounds alternate, so that both see the same
    # machine speed and their difference is the tracing overhead.
    plain = with_trace = 0.0
    for _ in range(TRACE_ROUNDS[name]):
        plain += tally.round(calls)
        for owner, attr, layer in targets:
            tracer.install(owner, attr, layer, count=_evaluations if attr == "maximize" else None)
        try:
            with_trace += tally.round(calls)
        finally:
            tracer.uninstall()
    # A layer the workload never reached reads 0.
    metrics = {"trace.overhead_s": with_trace - plain, "optimizer.maximize.evals": 0}
    for _, _, layer in targets:
        metrics[f"{layer}.calls"] = tracer.calls[layer]
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
    metrics.update(tracer.counts)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit; times setup_s")
    args = parser.parse_args(argv)
    if not (SRC / "qcdisc" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcdisc sources under {SRC}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{args.workload}-{os.getpid()}.csv"
    try:
        if args.probe:
            set_up(args.workload, args.seed, csv_path)
            print("ready", flush=True)
            return 0
        if args.trace:
            tally, measured = traced(args.workload, args.seed, csv_path)
            wanted = spec["per_layer"]
        else:
            seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
            tally, measured = end_to_end(args.workload, args.seed, seconds, csv_path)
            wanted = spec["end_to_end"]
    finally:
        csv_path.unlink(missing_ok=True)

    unknown = [m["name"] for m in wanted if m["name"] not in measured]
    if unknown:
        raise SystemExit(f"error: BENCHMARK.json names metrics never measured: {unknown}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"rounds": tally.rounds, "metrics": measured}, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(tally.rounds)}  "
          f"ops attempted {tally.attempted}  failed {tally.failed}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for op in sorted(tally.failed_names):
        print(f"  known failure: {op}")
    for problem in tally.fatal[:20]:
        print(f"  FAILED CHECK {problem}")
    correct = not tally.fatal
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
