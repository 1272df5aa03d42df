import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tomllib
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from circle_rope import cli
from circle_rope.cli import main, parse_radius
from circle_rope.geometry import AutoRadius, FixedRadius
import workloads
from test_golden import expected_digest


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParseRadius:
    def test_bare_number(self):
        assert parse_radius("10") == FixedRadius(10.0)

    def test_prefixed(self):
        assert parse_radius("fixed:2.5") == FixedRadius(2.5)
        assert parse_radius("auto:2") == AutoRadius(2.0)

    def test_garbage(self):
        from circle_rope.cli import UsageError
        with pytest.raises(UsageError):
            parse_radius("circle:9")

    @pytest.mark.parametrize("text", ["inf", "auto:inf", "fixed:1e309"])
    def test_non_finite(self, text):
        from circle_rope.cli import UsageError
        with pytest.raises(UsageError, match="finite"):
            parse_radius(text)


class TestPtdCommand:
    def test_paper_table(self):
        code, text = run_cli("ptd", "--layout", "i3x3,t5", "--beta", "1",
                             "--schemes", "hard,unordered,spatial,circle",
                             "--format", "csv")
        assert code == 0
        rows = {line.split(",")[0]: line.split(",") for line in text.strip().splitlines()[1:]}
        assert float(rows["hard"][1]) == pytest.approx(2.22, abs=0.01)
        assert float(rows["unordered"][1]) == 0.0
        assert 0.60 <= float(rows["spatial"][1]) <= 0.70
        assert abs(float(rows["circle"][1])) < 1e-9

    def test_missing_modality_exit_2(self):
        code, _ = run_cli("ptd", "--layout", "t3")
        assert code == 2

    def test_unordered_only(self):
        code, text = run_cli("ptd", "--layout", "i2x2,t1", "--schemes", "unordered",
                             "--format", "csv")
        assert code == 0
        assert text.strip().splitlines()[1].split(",")[1] == "0"

    @pytest.mark.parametrize("layout, message", [
        # well-formed segments whose size breaks the segment's own rule
        ("t0,i3x3", "text run length must be >= 1, got 0"),
        ("i0x3,t5", "grid must be at least 1x1, got 0x3"),
        ("i3x-1,t5", "grid must be at least 1x1, got 3x-1"),
        # malformed segments
        ("q5", "bad layout segment 'q5' (expected t<N> or i<W>x<H>)"),
        ("i3y3,t5", "bad layout segment 'i3y3' (expected t<N> or i<W>x<H>)"),
        ("t5x3,i3x3", "bad layout segment 't5x3' (expected t<N> or i<W>x<H>)"),
        ("t3,x7", "bad layout segment 'x7' (expected t<N> or i<W>x<H>)"),
        ("i3x3,,t5", "empty segment in layout 'i3x3,,t5'"),
        # sizes that int() takes but the ASCII integer grammar does not
        ("t1_0,i3x3", "bad layout segment 't1_0' (expected t<N> or i<W>x<H>)"),
        ("t+5,i\u0663x3", "bad layout segment 't+5' (expected t<N> or i<W>x<H>)"),
        ("t5,i\u0663x3", "bad layout segment 'i\u0663x3' (expected t<N> or i<W>x<H>)"),
        ("t 5,i3x3", "bad layout segment 't 5' (expected t<N> or i<W>x<H>)"),
        ("", "empty segment in layout ''"),
    ])
    def test_bad_layout_stderr(self, capsys, layout, message):
        code, text = run_cli("ptd", "--layout", layout)
        assert (code, text, capsys.readouterr().err) == (2, "", f"error: {message}\n")

    def test_radius_rounding_to_zero_exit_2(self, capsys):
        # 5e-324, the smallest positive float, times 0.5, the largest norm
        # of a centered 2x1 grid, rounds to 0.0
        code, text = run_cli("ptd", "--layout", "i2x1,t1", "--radius", "auto:5e-324")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: radius must be positive, got 0.0\n"

    def test_radius_overflow_exit_2(self):
        # k is finite but k * max norm of a 64x64 grid overflows to inf
        code, text = run_cli("ptd", "--layout", "i64x64,t5", "--radius", "auto:1e308")
        assert (code, text) == (2, "")

    def test_non_finite_ptd_stderr_is_one_line(self):
        # numpy's overflow warnings must not reach stderr ahead of the error
        result = subprocess.run([sys.executable, "-m", "circle_rope.cli", "ptd", "--layout",
                                 "i8x8,t5", "--radius", "fixed:1e160", "--format", "csv"],
                                capture_output=True, text=True, env=_base_env())
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: PTD is not finite: index distances overflow float64\n"


class TestProjectCommand:
    def test_circle2d_stage(self):
        code, text = run_cli("project", "--layout", "i3x3,t1", "--stage", "circle2d",
                             "--alpha", "0", "--radius", "10")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "token_id,x,y,z"
        assert len(lines) == 10
        for line in lines[1:]:
            _, x, y, z = line.split(",")
            assert (float(x) ** 2 + float(y) ** 2) ** 0.5 == pytest.approx(10.0, abs=1e-9)
            assert float(z) == 0.0

    def test_projected_stage_plane(self):
        code, text = run_cli("project", "--layout", "i3x3,t1", "--stage", "projected",
                             "--alpha", "0", "--radius", "10")
        assert code == 0
        for line in text.strip().splitlines()[1:]:
            parts = [float(v) for v in line.split(",")]
            assert abs(parts[1] + parts[2] + parts[3]) < 1e-9

    def test_fused_beta_zero_is_centered_grid(self):
        code, text = run_cli("project", "--layout", "i3x3,t1", "--stage", "fused",
                             "--beta", "0")
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in text.strip().splitlines()[1:]]
        expected = [[0.0, j - 1.0, i - 1.0] for j in range(3) for i in range(3)]
        assert [r[1:] for r in rows] == expected


class TestAttnCommand:
    def test_unordered_zero_spread(self):
        code, text = run_cli("attn", "--layout", "i3x3,t5", "--scheme", "unordered",
                             "--seed", "7", "--layers", "4")
        assert code == 0
        report = json.loads(text)
        for stats in report["unordered"].values():
            assert stats["spread"] < 1e-9

    def test_default_sections_come_from_head_dim(self):
        args = ("attn", "--layout", "i3x3,t5", "--layers", "2", "--head-dim", "128")
        code, default = run_cli(*args)
        assert code == 0
        assert run_cli(*args, "--sections", "32,16,16") == (0, default)

    @pytest.mark.parametrize("schedule, circle_layers", [("upper", {4, 5}), ("lower", {1, 2, 3})],
                             ids=["upper", "lower"])
    def test_odd_layer_count_splits_at_the_ceiling(self, schedule, circle_layers):
        code, text = run_cli("attn", "--layout", "i3x3,t5", "--schedule", schedule,
                             "--layers", "5", "--head-dim", "8", "--sections", "2,1,1")
        assert code == 0
        report = json.loads(text)
        # circle's other layers run on the spatial indices, with their stats
        assert {layer for layer in range(1, 6)
                if report["circle"][str(layer)] != report["spatial"][str(layer)]} == circle_layers

    def test_bad_sections_exit_2(self):
        code, _ = run_cli("attn", "--layout", "i3x3,t5", "--sections", "1,1,1",
                          "--head-dim", "8")
        assert code == 2

    def test_negative_section_exit_2(self, capsys):
        # the counts sum to head_dim/2, but one is negative
        code, text = run_cli("attn", "--layout", "i3x3,t5", "--head-dim", "8",
                             "--sections", "5,-1,0", "--layers", "2")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == \
            "error: sections must be 3 non-negative counts, got (5, -1, 0)\n"

    def test_format_is_not_an_option(self, capsys):
        code, text = run_cli("attn", "--layout", "i2x2,t2", "--layers", "1", "--head-dim", "8",
                             "--format", "csv")
        stderr = capsys.readouterr().err
        assert (code, text) == (2, "")
        assert stderr.startswith("usage: ") and "unrecognized arguments: --format csv" in stderr


@pytest.mark.parametrize("command, listed", [("ptd", True), ("project", True), ("attn", False)])
def test_help_lists_format_where_it_takes_effect(capsys, command, listed):
    assert run_cli(command, "--help") == (0, "")
    assert ("--format" in capsys.readouterr().out) == listed


def _base_env():
    return {k: v for k, v in os.environ.items() if k != "CIRCLE_ROPE_SEED"}


def test_internal_value_error_exit_1(monkeypatch):
    # a bare ValueError is a bug, not a usage error
    def broken(args, out):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "cmd_ptd", broken)
    code, text = run_cli("ptd", "--layout", "i3x3,t5")
    assert (code, text) == (1, "")


def test_closed_stdout_exits_1_quietly():
    # 200 kB of csv, more than the pipe holds, so the CLI is still writing
    # when the reader goes away
    with subprocess.Popen([sys.executable, "-m", "circle_rope.cli", "project", "--layout",
                           "i64x64,t8", "--stage", "fused"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_base_env()) as proc:
        assert proc.stdout.readline() == b"token_id,x,y,z\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1


# Runs circle_rope.cli as __main__, as `python -m` and the console script do,
# and reports from an exit hook whether the collector is on and the heap frozen.
PROCESS_CHILD = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("circle_rope.cli", run_name="__main__")
"""


@pytest.mark.parametrize("case_id", ["readme-ptd", "readme-project", "readme-attn",
                                     "invalid-bad-segment"])
def test_process_runs_without_the_collector(case_id):
    case = next(case for case in workloads.cli_cases() if case["id"] == case_id)
    proc = subprocess.run([sys.executable, "-c", PROCESS_CHILD, *case["argv"]],
                          capture_output=True, env={**_base_env(), **case["env"]}, timeout=120)
    digest = [proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), len(proc.stdout)]
    assert digest == expected_digest(case_id)
    assert proc.stderr.decode().splitlines()[-1] == "False True"


def test_console_script_is_the_process_entry_point():
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, attr = pyproject["project"]["scripts"]["circle-rope"].partition(":")
    assert getattr(import_module(module), attr) is cli.run


def _arrays_held(objects):
    """The ndarrays that `objects` hold, directly or through untracked
    containers. An ndarray is not tracked by the collector, so gc.garbage
    never lists one itself."""
    garbage = {id(obj) for obj in objects}
    seen, stack, arrays = set(), list(objects), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        else:
            stack += [ref for ref in gc.get_referents(obj)
                      if id(ref) in garbage or not gc.is_tracked(ref)]
    return arrays


def test_no_call_leaves_an_array_in_a_cycle():
    # why run() may keep the collector off: the cycles a call leaves hold no table
    argvs = [["ptd", "--layout", "i64x64,t256"],
             ["project", "--layout", "i64x64,t8", "--stage", "fused", "--format", "json"],
             ["attn", "--layout", "i32x32,t64", "--layers", "8"],
             ["ptd", "--layout", "i0x3,t5"]]
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in argvs:
            main(argv, out=io.StringIO())
        gc.collect()
        arrays = _arrays_held(gc.garbage)
        assert not arrays, (f"{len(arrays)} arrays of {sum(a.nbytes for a in arrays)} bytes "
                            "in reference cycles")
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
