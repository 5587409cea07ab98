"""Time the curve runs of acceptance criterion 5 on one checkout.

Usage, from anywhere:

    python3 tools/time_curves.py --checkout PATH --jobs J [--out FILE]

Runs ``run_curve`` for the three channel families at the reference points
(0.75, 0.4) and (0.95, 0.6), n = 1..6, seed 17, as criterion 5 does, with
qcdisc imported from ``PATH/src`` and BLAS pinned to one thread before numpy
loads. Prints one line per family and writes a JSON record: the wall time
per family, the evaluations per strategy, and every row, so that two
checkouts can be compared row by row.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

FAMILIES = ("depolarizing", "bit-flip", "amplitude-damping")
POINTS = ((0.75, 0.4), (0.95, 0.6))
STRATEGIES = ("global", "bayesian", "markovian")


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", required=True, help="root of the qcdisc checkout to time")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", help="JSON record to write")
    args = ap.parse_args(argv)

    src = Path(args.checkout).resolve() / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import qcdisc
    from qcdisc.experiments import make_config, run_curve

    if Path(qcdisc.__file__).resolve().parent != src / "qcdisc":
        raise SystemExit(f"error: imported qcdisc from {qcdisc.__file__}, not {src}")
    record = {
        "checkout": str(Path(args.checkout).resolve()),
        "jobs": args.jobs,
        "machine": {
            "cpu": _cpu(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": 1,
        },
        "families": {},
    }
    total = 0.0
    for family in FAMILIES:
        cfg = make_config(family, points=POINTS, n_max=6, seed=17, jobs=args.jobs)
        t0 = time.perf_counter()
        rows = run_curve(cfg)
        wall = time.perf_counter() - t0
        total += wall
        record["families"][family] = {
            "wall_s": wall,
            "evaluations": {s: sum(r.evaluations for r in rows if r.strategy == s) for s in STRATEGIES},
            "rows": [
                {"eta0": r.eta0, "eta1": r.eta1, "n": r.n, "strategy": r.strategy,
                 "p_succ": r.p_succ, "r_values": list(r.r_values), "evaluations": r.evaluations}
                for r in rows
            ],
        }
        evals = record["families"][family]["evaluations"]
        print(f"{family}: {wall:.1f} s, evaluations {evals}", flush=True)
    record["wall_s"] = total
    print(f"total: {total:.1f} s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
