import io
import json
import subprocess
import sys

import pytest

from circle_rope import cli
from circle_rope.cli import main, parse_radius
from circle_rope.geometry import AutoRadius, FixedRadius


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

    def test_bad_layout_exit_2(self):
        code, _ = run_cli("ptd", "--layout", "i3x3,q5")
        assert code == 2

    def test_radius_overflow_exit_2(self):
        # k is finite but k * max norm of a 64x64 grid overflows to inf
        code, text = run_cli("ptd", "--layout", "i64x64,t5", "--radius", "auto:1e308")
        assert (code, text) == (2, "")

    def test_non_finite_ptd_exit_2(self):
        # the radius is finite, but squared circle distances overflow to inf
        code, text = run_cli("ptd", "--layout", "i8x8,t5", "--radius", "fixed:1e160",
                             "--format", "csv")
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

    def test_bad_stage_exit_2(self):
        code, _ = run_cli("project", "--layout", "i3x3,t1", "--stage", "warped")
        assert code == 2


class TestAttnCommand:
    def test_unordered_zero_spread(self):
        code, text = run_cli("attn", "--layout", "i3x3,t5", "--scheme", "unordered",
                             "--seed", "7", "--layers", "4")
        assert code == 0
        report = json.loads(text)
        for stats in report["unordered"].values():
            assert stats["spread"] < 1e-9

    def test_byte_identical_reruns(self):
        args = ("attn", "--layout", "i3x3,t5", "--seed", "3", "--layers", "2",
                "--head-dim", "8", "--sections", "2,1,1")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second

    def test_default_sections_come_from_head_dim(self):
        args = ("attn", "--layout", "i3x3,t5", "--layers", "2", "--head-dim", "128")
        code, default = run_cli(*args)
        assert code == 0
        assert run_cli(*args, "--sections", "32,16,16") == (0, default)

    def test_bad_sections_exit_2(self):
        code, _ = run_cli("attn", "--layout", "i3x3,t5", "--sections", "1,1,1",
                          "--head-dim", "8")
        assert code == 2

    @pytest.mark.parametrize("layout, layers", [("i3x3,t5", "0"), ("i3x3", "2")],
                             ids=["zero-layers", "no-text"])
    def test_harness_error_exit_2(self, layout, layers):
        code, text = run_cli("attn", "--layout", layout, "--layers", layers)
        assert (code, text) == (2, "")

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


class TestConfigAndEnv:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 1.0\nalpha = 0.25  # flags win over this\n")
        code, text = run_cli("ptd", "--layout", "i3x3,t5", "--schemes", "circle",
                             "--config", str(cfg), "--format", "csv")
        assert code == 0
        assert abs(float(text.strip().splitlines()[1].split(",")[1])) < 1e-9  # beta=1 from file
        code, text = run_cli("ptd", "--layout", "i3x3,t5", "--schemes", "circle",
                             "--config", str(cfg), "--beta", "0", "--format", "csv")
        assert float(text.strip().splitlines()[1].split(",")[1]) > 0.1  # flag overrides file

    def test_config_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpah=0.9\n")
        code, text = run_cli("ptd", "--layout", "i3x3,t5", "--config", str(cfg))
        assert (code, text) == (2, "")

    def test_config_value_outside_choices_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=xml\n")
        code, text = run_cli("ptd", "--layout", "i3x3,t5", "--config", str(cfg))
        assert (code, text) == (2, "")

    def test_config_key_of_another_subcommand_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("layers = 6\nformat = csv\n")
        code, text = run_cli("ptd", "--layout", "i3x3,t5", "--config", str(cfg))
        assert code == 0
        assert text.startswith("scheme,ptd,distance_convention\n")

    @pytest.mark.parametrize("line", ["layers=abc", "alpha=x", "beta=x", "radius=abc",
                                      "seed=1.5", "head-dim=abc"])
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, text = run_cli("attn", "--layout", "i3x3,t5", "--config", str(cfg))
        assert (code, text) == (2, "")

    def test_bad_seed_env_exit_2(self, monkeypatch):
        monkeypatch.setenv("CIRCLE_ROPE_SEED", "x")
        code, text = run_cli("attn", "--layout", "i3x3,t5", "--layers", "1")
        assert (code, text) == (2, "")

    def test_seed_env_fallback(self):
        script = (
            "import sys; from circle_rope.cli import main; "
            "sys.exit(main(['attn', '--layout', 'i2x2,t2', '--layers', '1', "
            "'--head-dim', '8', '--sections', '2,1,1']))"
        )
        env_a = {"CIRCLE_ROPE_SEED": "5"}
        out1 = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**_base_env(), **env_a})
        out2 = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env={**_base_env(), "CIRCLE_ROPE_SEED": "6"})
        assert out1.returncode == 0 and out2.returncode == 0
        assert out1.stdout != out2.stdout


def _base_env():
    import os
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
    proc = subprocess.Popen([sys.executable, "-m", "circle_rope.cli", "project", "--layout",
                             "i64x64,t8", "--stage", "fused"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_base_env())
    assert proc.stdout.readline() == b"token_id,x,y,z\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 1
