"""The names the benchmark wraps or calls still exist where it looks for them.

``perfbench/run.py`` traces ``(owner, attribute)`` pairs, and
``Tracer.install`` reads each one from ``vars(owner)``; ``perfbench/workloads.py``
calls the evaluators named in ``EVALUATE_PLAN`` on :mod:`qcdisc.strategies`.
Both files are read as source, so a renamed or moved function fails here
rather than in a traced run.
"""

import ast
from pathlib import Path

import qcdisc
import qcdisc.cli
import qcdisc.experiments
import qcdisc.helstrom
import qcdisc.strategies

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _value_of(nodes, name: str):
    """The value assigned to ``name`` by the first plain assignment in ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"no assignment to {name} in perfbench")


def _owner(node, names):
    """The object an owner expression such as ``strategies.InputSchedule`` names."""
    if isinstance(node, ast.Name):
        return names[node.id]
    return getattr(_owner(node.value, names), node.attr)


def _traced_targets():
    traced = next(
        node for node in _tree("run.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "traced"
    )
    targets = _value_of(ast.walk(traced), "targets")
    return [(entry.elts[0], ast.literal_eval(entry.elts[1])) for entry in targets.elts]


def test_traced_targets_exist():
    names = {"strategies": qcdisc.strategies, "qcdisc": qcdisc}
    targets = _traced_targets()
    assert targets
    for owner, attr in targets:
        assert attr in vars(_owner(owner, names)), f"{ast.unparse(owner)}.{attr}"


def test_evaluate_plan_functions_exist():
    plan = ast.literal_eval(_value_of(_tree("workloads.py").body, "EVALUATE_PLAN"))
    funcs = {entry[0] for entry in plan}
    assert funcs
    for func in funcs:
        assert func in vars(qcdisc.strategies), func


def test_main_reaches_the_drivers_the_trace_replaces(monkeypatch, capsys):
    # run.py traces the driver layer by replacing cli.run_sweep_diff, so
    # cli.main must look its driver up when it runs, not keep its own copy.
    calls = []
    for name in ("run_curve", "run_sweep_diff"):
        def record(cfg, name=name, run=getattr(qcdisc.cli, name)):
            calls.append(name)
            return run(cfg)

        monkeypatch.setattr(qcdisc.cli, name, record)
    argv = ["--family", "depolarizing", "--jobs", "1"]
    assert qcdisc.cli.main(["curve", *argv, "--eta0", "0.75", "--eta1", "0.4"]) == 0
    assert qcdisc.cli.main(["sweep-diff", *argv, "--grid", "0:1:2"]) == 0
    assert calls == ["run_curve", "run_sweep_diff"]
