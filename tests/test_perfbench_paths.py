"""The circle_rope names the benchmark resolves: every span target of
perfbench/tracer.py and every module attribute perfbench/worker.py reads.
A cleanup that removes one of them breaks `perfbench/run.py --trace 1`,
which no other test runs."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracer  # noqa: E402


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
