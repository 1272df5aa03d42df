"""The circle_rope names the benchmark resolves: every span target of
perfbench/tracer.py and every module attribute perfbench/worker.py reads.
A cleanup that removes one of them breaks `perfbench/run.py --trace 1`,
which no other test runs."""

import ast
import importlib
from pathlib import Path

import pytest
import tracer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", sorted(tracer.TARGETS))
def test_tracer_target_resolves(name):
    module_name, path = tracer.TARGETS[name]
    owner, attr = tracer._resolve(importlib.import_module(f"circle_rope.{module_name}"), path)
    assert callable(getattr(owner, attr))


def worker_names():
    """(module, attribute) for each `<module>.<attribute>` in worker.py
    where the module came from `from circle_rope import ...`."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "circle_rope"
               for alias in node.names}
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_worker_names_resolve():
    names = worker_names()
    assert {("geometry", "CipConfig"), ("schemes", "parse_layout"),
            ("harness", "make_schedule"), ("harness", "ScheduleStrategy")} <= names
    for module_name, attr in sorted(names):
        assert hasattr(importlib.import_module(f"circle_rope.{module_name}"), attr), \
            f"{module_name}.{attr}"


def test_tracer_hooks_read_their_arguments():
    # the hooks read run_experiment's `schedule` and `schemes` arguments and
    # DistanceMatrix fields; a rename there breaks only traced runs
    from circle_rope import harness, metrics, schemes
    from circle_rope.geometry import CipConfig
    from circle_rope.rope import RotaryParams

    segments = schemes.parse_layout("i2x2,t3")
    schedule = harness.make_schedule(3, harness.ScheduleStrategy.ALTERNATING)
    trace = tracer.Tracer()
    trace.install()
    try:
        harness.run_experiment(segments, CipConfig(), schedule,
                               RotaryParams(8, sections=(2, 1, 1)), seed=0)
        metrics.distance_matrix(schemes.assign("circle", segments))
    finally:
        trace.uninstall()
    got = trace.layer_metrics()
    # 4 schemes x 3 layers; circle's spatial layers reuse spatial's stats
    assert got["harness.layer_slots"] == 12
    assert got["harness.layer_evals"] == 4
    # 4 layer evaluations and one direct call, each 3 x 4 pairs
    assert got["metrics.pairs"] == 60
