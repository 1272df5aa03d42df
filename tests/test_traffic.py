"""Which functions and which checks of `src/` the CLI reaches. Every named
function and method of `src/circle_rope/*.py` runs in some call of the
benchmark's CLI catalogue (`cli_cases()` and `cli_probes()` in
perfbench/workloads.py), or is named in UNCALLED with the reason it stays.
Every `raise` statement runs in some catalogue call too, or is named in
RAISES with one call that reaches it: a CLI argv, or a library call where
only a library caller meets the check. A raise is named by its module,
function and a fragment of its message, never by its line.

The checks are equality. A new function or raise that no CLI call reaches
fails them until it goes or joins its table; a table entry that a CLI call
reaches fails them until it leaves the table. Each RAISES entry is also run
on its own, and fails unless its call runs the raise it names.
"""

import ast
import importlib
import inspect
import io
import pkgutil
import sys
import types
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import circle_rope
from circle_rope.cli import main
from circle_rope.harness import run_experiment
from circle_rope.metrics import DistanceMatrix
from circle_rope.schemes import assign
from circle_rope.spec import CipConfig, CircleRopeError, GridSpec, RotaryParams, \
    ScheduleStrategy, TextSegment, make_schedule
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

LAYOUT = ["--layout", "i3x3,t5"]

# (module.qualname, a fragment of the message) -> one call that reaches that
# raise, which no catalogue call reaches: a CLI argv, which must exit 2, with
# the text of its --config file where it takes one, or a library call, which
# must raise CircleRopeError. A message is its literal text, with `{}` for
# each replacement field.
RAISES = {
    # the CLI's size limits, seed rule and config-value checks
    ("cli._inputs", "tokens, over the limit"): ["ptd", "--layout", "i512x512,t1"],
    ("cli._inputs", "text-image pairs"): ["ptd", "--layout", "i256x256,t1025"],
    ("cli.cmd_attn", "head-dim {} is over"): ["attn", *LAYOUT, "--head-dim", "1024"],
    ("cli.cmd_attn", "tokens x head-dim"): ["attn", "--layout", "i256x256,t1",
                                            "--head-dim", "512"],
    ("cli.cmd_attn", "layers {} is over"): ["attn", *LAYOUT, "--layers", "1025"],
    ("cli.parse_seed", "bad seed"): ["attn", *LAYOUT, "--seed", "-1"],
    ("cli.load_config_file", "bad config value {}={} in {}: {}"): (["ptd", *LAYOUT],
                                                                   "alpha = high\n"),
    # input rules of `spec` and the one check left to the computation
    ("spec.integer", "expected an integer"): ["attn", *LAYOUT, "--layers", "four"],
    ("spec.TextSegment.__post_init__", "text run length"): ["ptd", "--layout", "i3x3,t0"],
    ("spec.CipConfig.__post_init__", "beta must be in"): ["ptd", *LAYOUT, "--beta", "2"],
    ("spec.AutoRadius.resolve", "degenerate radius"): ["ptd", "--layout", "i1x1,t1",
                                                       "--radius", "auto:1"],
    ("spec.AutoRadius.resolve", "is not finite"): ["ptd", "--layout", "i64x64,t5",
                                                   "--radius", "auto:1e308"],
    ("spec.AutoRadius.resolve", "radius must be positive"): ["ptd", "--layout", "i2x1,t1",
                                                             "--radius", "auto:5e-324"],
    ("spec.RotaryParams.__post_init__", "non-negative counts"): [
        "attn", *LAYOUT, "--head-dim", "8", "--sections=-1,3,2"],
    ("spec.RotaryParams.__post_init__", "must sum to head_dim/2"): [
        "attn", *LAYOUT, "--head-dim", "8", "--sections", "1,1,1"],
    ("metrics.ptd", "PTD is not finite"): ["ptd", *LAYOUT, "--radius", "1e300", "--beta", "1",
                                           "--schemes", "circle"],
    # checks at the library's entry points, which perfbench/worker.py and
    # other library callers meet, on inputs that the CLI refuses first
    ("metrics.DistanceMatrix.__init__", "both modalities"):
        lambda: DistanceMatrix(np.zeros((0, 3)), np.zeros((1, 3))),
    ("harness.run_experiment", "needs both text and image"):
        lambda: run_experiment([GridSpec(3, 3)], CipConfig(),
                               make_schedule(1, ScheduleStrategy.ALL_CIRCLE), RotaryParams(8),
                               seed=0),
    ("schemes.assign", "unknown scheme"): lambda: assign("spiral", [TextSegment(1)]),
    ("spec.make_schedule", "unknown strategy"): lambda: make_schedule(4, "alt"),
}


class RaiseSite(NamedTuple):
    function: str  # module.qualname
    message: str  # the literal text of its message, with `{}` for each replacement field
    path: str
    lines: range  # every line of the raise statement


def _message(node: ast.Raise) -> str:
    arg = node.exc.args[0] if isinstance(node.exc, ast.Call) and node.exc.args else node.exc
    if isinstance(arg, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in arg.values)
    if isinstance(arg, ast.Constant):
        return str(arg.value)
    return ast.unparse(arg) if arg else ""


def raise_sites() -> list[RaiseSite]:
    """Every raise statement of `src/circle_rope/*.py`, found with `ast`."""
    sites = []

    def visit(node: ast.AST, path: str, qualname: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.<locals>.{child.name}" if in_function else \
                    f"{qualname}.{child.name}"
                visit(child, path, name, not isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Raise):
                sites.append(RaiseSite(qualname, _message(child), path,
                                       range(child.lineno, child.end_lineno + 1)))
            visit(child, path, qualname, in_function)

    for path, module in FILES.items():
        visit(ast.parse(Path(path).read_text()), path, module, False)
    return sites


def _keys(sites: set[RaiseSite]) -> list[tuple[str, str]]:
    return sorted((site.function, site.message) for site in sites)


def named_site(key: tuple[str, str], sites: list[RaiseSite]) -> RaiseSite:
    """The one raise site a RAISES key names."""
    function, fragment = key
    found = [site for site in sites if site.function == function and fragment in site.message]
    assert len(found) == 1, f"RAISES key {key} names {len(found)} raise sites, not one: {found}"
    return found[0]


class Trace:
    """A `sys.settrace` tracer of `src/`: the module.qualname of every
    function called, and every (path, line) that ran."""

    def __init__(self) -> None:
        self.called: set[str] = set()
        self.ran: set[tuple[str, int]] = set()

    def __enter__(self) -> "Trace":
        self.previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self.previous)

    def _call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if path not in FILES:
            return None
        self.called.add(f"{FILES[path]}.{frame.f_code.co_qualname}")
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def reached(self, site: RaiseSite) -> bool:
        return any((site.path, line) in self.ran for line in site.lines)


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


@pytest.fixture(scope="module")
def catalogue(tmp_path_factory) -> Trace:
    """Every catalogue case, run in-process under one trace."""
    with Trace() as trace:
        for case_id, case in CASES.items():
            directory = tmp_path_factory.mktemp(case_id)
            with pytest.MonkeyPatch.context() as monkeypatch:
                run_case(case, directory, monkeypatch)
    return trace


def test_every_src_function_runs_in_a_cli_call_or_says_why_not(catalogue):
    defined = {f"{FILES[path]}.{qualname}" for path in FILES
               for qualname in named_functions(compile(Path(path).read_text(), path, "exec"))}
    uncalled = defined - catalogue.called
    assert uncalled == set(UNCALLED), (
        f"no CLI call reaches these, and UNCALLED does not name them (remove each, or name it "
        f"with the reason it stays): {sorted(uncalled - set(UNCALLED))}; UNCALLED names these, "
        f"which a CLI call reaches or src/ no longer defines (take each out): "
        f"{sorted(set(UNCALLED) - uncalled)}")


def test_every_raise_runs_in_a_cli_call_or_is_in_the_table(catalogue):
    sites = raise_sites()
    unreached = {site for site in sites if not catalogue.reached(site)}
    named = {named_site(key, sites) for key in RAISES}
    assert unreached == named, (
        f"no CLI call reaches these raises, and RAISES does not name them (remove each, or "
        f"name it with a call that reaches it): {_keys(unreached - named)}; RAISES names "
        f"these, which a CLI call reaches (take each out): {_keys(named - unreached)}")


@pytest.mark.parametrize("key", sorted(RAISES), ids=": ".join)
def test_table_call_reaches_its_raise(key, tmp_path, monkeypatch):
    site = named_site(key, raise_sites())
    call = RAISES[key]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CIRCLE_ROPE_SEED", raising=False)
    with Trace() as trace:
        if callable(call):
            with pytest.raises(CircleRopeError):
                call()
        else:
            argv, config = call if isinstance(call, tuple) else (call, None)
            if config is not None:
                (tmp_path / "entry.cfg").write_text(config)
                argv = [*argv, "--config", str(tmp_path / "entry.cfg")]
            assert main(argv, out=io.StringIO()) == 2
    assert trace.reached(site), f"{call} does not reach {site}"
