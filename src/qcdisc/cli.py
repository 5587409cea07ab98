"""Command-line front end.

Subcommands: ``curve`` (success probability vs shot count), ``sweep-diff``
(Bayesian minus Markovian over an eta grid at three shots) and ``validate``
(self-check suites). Exit codes: 0 success, 1 validation failure, 2 bad
configuration.

For the amplitude-damping family, eta values on the command line and in
config files are fractions of pi/2; output rows carry radians.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys

from . import __version__
from .channels import ChannelFamily
from .experiments import (
    GRID_STEPS_MAX,
    VALID_STRATEGIES,
    VALID_SUITES,
    ConfigError,
    make_config,
    run_curve,
    run_sweep_diff,
    run_validate,
    write_records_csv,
    write_records_json,
)
from .strategies import ScheduleMode

_WRITERS = {"csv": write_records_csv, "json": write_records_json}
# One help line per setting, naming the values it takes. A flag's text goes
# to make_config as a config file's value does, which parses and checks it.
_HELP = {
    "eta0": "noise parameter of channel 0; repeat for several points",
    "eta1": "noise parameter of channel 1, paired with --eta0 in order",
    "family": f"channel family: {', '.join(family.value for family in ChannelFamily)}",
    "grid": f"MIN:MAX:STEPS eta grid for both axes, STEPS from 2 to {GRID_STEPS_MAX}",
    "n_max": "largest shot count, an integer >= 1",
    "strategies": f"comma-separated subset of {','.join(VALID_STRATEGIES)}",
    "input_mode": " or ".join(mode.value for mode in ScheduleMode),
    "value_tol": "a start stops below this value spread; positive and finite",
    "max_evals": "evaluations per start, an integer >= 1",
    "max_starts": "starts per search, an integer >= 3",
    "seed": "seed of the random starts, an integer >= 0",
    "jobs": "worker processes, an integer >= 1",
    "out": "output path; stdout when omitted",
    "format": " or ".join(_WRITERS),
}


def _settings(cmd: str) -> list[str]:
    """The settings ``cmd`` takes by flag or config key: make_config's
    parameters but those of the other command, plus the output's."""
    other = {"grid"} if cmd == "curve" else {"n_max", "points", "strategies"}
    params = inspect.signature(make_config).parameters
    return [key for key in params if key not in other] + ["out", "format"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcdisc",
        description="Multi-shot discrimination of qubit channels.",
    )
    parser.add_argument("--version", action="version", version=f"qcdisc {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, help_text in (("curve", "success probability vs shot count"),
                           ("sweep-diff", "Bayesian minus Markovian success over an eta grid")):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in _settings(cmd):  # the points come in --eta0/--eta1 pairs
            for flag in ("eta0", "eta1") if key == "points" else (key,):
                p.add_argument("--" + flag.replace("_", "-"), help=_HELP[flag],
                               action="append" if key == "points" else None)

    validate = sub.add_parser("validate", help="run a self-check suite")
    validate.add_argument("suite", help=f"one of {', '.join(VALID_SUITES)}")
    validate.add_argument("--seed", default=0, help="seed of the suite's draws, an integer >= 0")

    return parser


def _load_file_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _config_from_args(args):
    file_cfg = _load_file_config(args.config)
    # make_config parses and checks the settings and holds the defaults; a
    # null in the file is refused, not defaulted (a null out means stdout).
    keys = _settings(args.cmd)
    unknown = sorted(set(file_cfg) - set(keys))
    if unknown:
        raise ConfigError(f"{args.cmd} reads no config key {', '.join(map(repr, unknown))}; "
                          f"it reads {', '.join(keys)}")
    nulls = sorted(key for key, value in file_cfg.items() if value is None and key != "out")
    if nulls:
        raise ConfigError(f"config keys may not be null: {', '.join(nulls)}")
    given = {key: file_cfg[key] for key in keys if key in file_cfg}
    given.update((key, getattr(args, key)) for key in keys if getattr(args, key, None) is not None)
    if given.get("family") is None:
        raise ConfigError("a channel family is required (--family or config file)")
    if "points" in keys and (args.eta0 is not None or args.eta1 is not None):
        if args.eta0 is None or args.eta1 is None or len(args.eta0) != len(args.eta1):
            raise ConfigError("--eta0 and --eta1 must be given in matching pairs")
        given["points"] = list(zip(args.eta0, args.eta1))

    out = given.pop("out", None)
    fmt = given.pop("format", "csv")
    if not isinstance(fmt, str) or fmt not in _WRITERS:
        raise ConfigError(f"format must be {' or '.join(_WRITERS)}, got {fmt!r}")
    cfg = make_config(**given)
    if out:  # checked before the run, which may take hours
        folder = os.path.dirname(os.path.abspath(out))
        if os.path.isdir(out):
            raise ConfigError(f"cannot write {out}: it is a directory")
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"cannot write {out}: {folder} is not a writable directory")
    return cfg, _WRITERS[fmt], out


def _emit(rows, cfg, writer, out) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                writer(rows, dataclasses.asdict(cfg), fh)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    else:
        writer(rows, dataclasses.asdict(cfg), sys.stdout)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd != "validate":  # the driver is looked up here, where a patch reaches it
            cfg, writer, out = _config_from_args(args)
            _emit((run_curve if args.cmd == "curve" else run_sweep_diff)(cfg), cfg, writer, out)
            return 0
        checks = run_validate(args.suite, args.seed)
        failed = 0
        for check in checks:
            status = "ok  " if check.passed else "FAIL"
            print(
                f"{status} {check.name}: deviation {check.deviation:.3e} "
                f"(bound {check.bound:.3e})"
            )
            failed += 0 if check.passed else 1
        print(f"{len(checks) - failed}/{len(checks)} checks passed")
        return 1 if failed else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
