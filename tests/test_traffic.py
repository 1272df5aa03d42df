"""Which functions of `src/` the CLI reaches: every named function and method
of `src/circle_rope/*.py` runs in some call of the benchmark's CLI catalogue
(`cli_cases()` and `cli_probes()` in perfbench/workloads.py), or is named in
UNCALLED with the reason it stays.

The check is equality. A new function that no CLI call reaches fails it until
it goes or joins the table with its reason; a table entry that a CLI call
reaches fails it until it leaves the table.
"""

import importlib
import inspect
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import circle_rope
from test_golden import CASES, run_case

# module.qualname -> why it stays although no CLI call reaches it
UNCALLED = {
    "cli.run": "the process entry; tests/test_cli.py runs it in child processes",
    "geometry.build_plane_basis": "runs once, at import",
    "harness.ExperimentReport.as_dict": "read by perfbench/worker.py",
    "metrics.DistanceMatrix.values": "read by the benchmark tracer's hook and by the `==` tests",
    "rope.logit": "a tracer target; the RoPE property tests call it",
}

# Imported before the calls are traced, so that a call made at import counts
# as no call.
FILES = {circle_rope.__file__: "__init__",
         **{importlib.import_module(f"circle_rope.{info.name}").__file__: info.name
            for info in pkgutil.iter_modules(circle_rope.__path__)}}


def named_functions(code: types.CodeType) -> set[str]:
    """The `co_qualname` of every function and method compiled inside `code`:
    no lambda or comprehension (named `<...>`), and no module or class body
    (which have no locals of their own)."""
    found = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                found.add(const.co_qualname)
            found |= named_functions(const)
    return found


def test_every_src_function_runs_in_a_cli_call_or_says_why_not(tmp_path):
    defined = {f"{FILES[path]}.{qualname}" for path in FILES
               for qualname in named_functions(compile(Path(path).read_text(), path, "exec"))}
    called = set()

    def trace(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in FILES:
            called.add(f"{FILES[frame.f_code.co_filename]}.{frame.f_code.co_qualname}")

    previous = sys.getprofile()
    sys.setprofile(trace)
    try:
        for case_id, case in CASES.items():
            directory = tmp_path / case_id
            directory.mkdir()
            with pytest.MonkeyPatch.context() as monkeypatch:
                run_case(case, directory, monkeypatch)
    finally:
        sys.setprofile(previous)
    uncalled = defined - called
    assert uncalled == set(UNCALLED), (
        f"no CLI call reaches these, and UNCALLED does not name them (remove each, or name it "
        f"with the reason it stays): {sorted(uncalled - set(UNCALLED))}; UNCALLED names these, "
        f"which a CLI call reaches or src/ no longer defines (take each out): "
        f"{sorted(set(UNCALLED) - uncalled)}")
