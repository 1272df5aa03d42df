"""One config path: a config-file value passes its flag's own converter and
choices, a flag overrides it, a valid key of another subcommand is accepted,
and a bad value exits 2 with one stderr line that names the file. Also the
seed converter and the CLI behaviour that the single projection pipeline and
the argparse converters fix."""

import pytest

from circle_rope import cli
from test_cli_limits import run_cli

PTD = ["ptd", "--layout", "i3x3,t5"]
ATTN = ["attn", "--layout", "i2x2,t2", "--layers", "2", "--head-dim", "8", "--seed", "1"]

# dest: (argv without the setting, flag, file value, another value for the flag)
SETTINGS = {
    "alpha": ([*PTD, "--schemes", "circle"], "--alpha", "0.25", "0.75"),
    "radius": ([*PTD, "--schemes", "circle"], "--radius", "auto:1.5", "fixed:4"),
    "beta": ([*PTD, "--schemes", "circle"], "--beta", "1.0", "0.3"),
    "format": (PTD, "--format", "json", "csv"),
    "schemes": (PTD, "--schemes", "hard,circle", "spatial"),
    "schedule": (ATTN, "--schedule", "upper", "lower"),
    "layers": (ATTN[:3] + ATTN[5:], "--layers", "3", "4"),
    "seed": (ATTN[:-2], "--seed", "2", "3"),
    "head_dim": (ATTN[:5] + ATTN[7:], "--head-dim", "16", "12"),
    "sections": (ATTN, "--sections", "2,1,1", "1,2,1"),
}

BAD_VALUES = ["alpha=x", "beta=x", "radius=abc", "radius=fixed:-1", "format=xml",
              "schemes=hard,square", "stage=warped", "schedule=sideways", "layers=abc",
              "seed=-1", "seed=1.5", "head-dim=abc", "sections=1,2", "sections=a,b,c",
              # int() takes these; the ASCII integer grammar does not
              "layers=\u0662", "head-dim=1_6", "seed=1_000", "seed=+7", "sections=4,+2,2"]
COMMANDS = {"ptd": PTD, "project": ["project", "--layout", "i3x3,t1", "--stage", "fused"],
            "attn": ATTN}


def config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_every_config_settable_dest_is_covered():
    assert set(SETTINGS) == set(cli._config_options(cli.build_parser()))


@pytest.mark.parametrize("dest", sorted(SETTINGS))
def test_file_value_converts_as_the_flag_does_and_the_flag_wins(capsys, tmp_path, dest):
    argv, flag, file_value, flag_value = SETTINGS[dest]
    cfg = config(tmp_path, f"{dest} = {file_value}\n")
    by_file = run_cli(capsys, *argv, "--config", cfg)
    assert by_file[0] == 0 and by_file == run_cli(capsys, *argv, flag, file_value)
    by_flag = run_cli(capsys, *argv, flag, flag_value)
    assert by_flag[0] == 0 and by_flag[1] != by_file[1]
    assert run_cli(capsys, *argv, "--config", cfg, flag, flag_value) == by_flag


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("line", BAD_VALUES)
def test_bad_file_value_exits_2_with_one_line_naming_the_file(capsys, tmp_path, command, line):
    # a key of another subcommand is converted and choice-checked as well
    cfg = config(tmp_path, line + "\n")
    code, stdout, stderr = run_cli(capsys, *COMMANDS[command], "--config", cfg)
    assert (code, stdout) == (2, "")
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ") and cfg in stderr


def test_config_key_of_another_subcommand_accepted(capsys, tmp_path):
    # `layers` is an attn setting; ptd takes the file's `format` and ignores it
    cfg = config(tmp_path, "layers = 6\nformat = csv\n")
    code, stdout, _ = run_cli(capsys, *PTD, "--config", cfg)
    assert code == 0 and stdout.startswith("scheme,ptd,distance_convention\n")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("line", ["layout = i4x4,t2", "stage = fused", "config = other.cfg"])
def test_layout_stage_or_config_key_exits_2_with_one_line_naming_the_file(capsys, tmp_path,
                                                                           command, line):
    # a required flag always overrides the file, and a nested config file is never read
    cfg = config(tmp_path, line + "\n")
    code, stdout, stderr = run_cli(capsys, *COMMANDS[command], "--config", cfg)
    assert (code, stdout) == (2, "")
    key = line.split()[0]
    assert stderr == f"error: unknown config key {key!r} in {cfg}\n"


def test_blank_lines_comments_and_a_quoted_value_read_as_the_flag(capsys, tmp_path):
    argv = [*PTD, "--schemes", "circle"]
    cfg = config(tmp_path, '\n# settings\n    # indented comment\nalpha = "0.3"\n')
    expected = run_cli(capsys, *argv, "--alpha", "0.3")
    assert expected[0] == 0 and expected[1] != run_cli(capsys, *argv)[1]
    assert run_cli(capsys, *argv, "--config", cfg) == expected


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_file_that_is_not_utf8_exits_2_with_one_line_naming_the_file(capsys, tmp_path,
                                                                             command):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"alpha = 0.3\n\xff\n")
    code, stdout, stderr = run_cli(capsys, *COMMANDS[command], "--config", str(path))
    assert (code, stdout) == (2, "")
    assert len(stderr.splitlines()) == 1 and stderr.startswith(f"error: cannot read config {path}")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_file_with_a_byte_order_mark_is_read(capsys, tmp_path, command):
    plain = config(tmp_path, "alpha = 0.3\n")
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + b"alpha = 0.3\n")
    expected = run_cli(capsys, *COMMANDS[command], "--config", plain)
    assert expected[0] == 0
    assert run_cli(capsys, *COMMANDS[command], "--config", str(marked)) == expected


@pytest.mark.parametrize("argv", [
    ["project", "--layout", "i3x3", "--stage", "warped"],
    ["ptd", "--layout", "i3x3,t5", "--schemes", "hard,square"],
    ["attn", "--layout", "i3x3,t5", "--sections", "1,2"],
    ["attn", "--layout", "i3x3,t5", "--seed", "-1"],
    ["attn", "--layout", "i3x3,t5", "--layers", "\u0662"],
    ["attn", "--layout", "i3x3,t5", "--head-dim", "1_6"],
    ["attn", "--layout", "i3x3,t5", "--seed", "1_000"],
], ids=["stage", "schemes", "sections", "seed", "layers-non-ascii", "head-dim-underscore",
        "seed-underscore"])
def test_bad_flag_prints_usage_and_an_argparse_error(capsys, argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    flag = argv[-2]
    assert stderr.startswith("usage: ") and f"error: argument {flag}" in stderr.splitlines()[-1]


@pytest.mark.parametrize("text", ["-4", "x", "1.5", "+7", "1_000"])
def test_bad_seed_environment_exits_2_with_one_line(capsys, monkeypatch, text):
    monkeypatch.setenv("CIRCLE_ROPE_SEED", text)
    code, stdout, stderr = run_cli(capsys, *ATTN[:-2])
    assert (code, stdout) == (2, "")
    assert stderr == f"error: bad seed {text!r}: expected a non-negative integer\n"


def test_seed_environment_is_ignored_where_there_is_no_seed(capsys, monkeypatch):
    monkeypatch.setenv("CIRCLE_ROPE_SEED", "-4")
    assert run_cli(capsys, *PTD)[0] == 0


@pytest.mark.parametrize("seed", ["0", "7", "007"])
def test_seed_sources_agree(capsys, monkeypatch, tmp_path, seed):
    monkeypatch.delenv("CIRCLE_ROPE_SEED", raising=False)
    by_flag = run_cli(capsys, *ATTN[:-2], "--seed", seed)
    by_file = run_cli(capsys, *ATTN[:-2], "--config", config(tmp_path, f"seed = {seed}\n"))
    monkeypatch.setenv("CIRCLE_ROPE_SEED", seed)
    by_env = run_cli(capsys, *ATTN[:-2])
    assert by_flag[0] == 0 and by_flag == by_file == by_env


@pytest.mark.parametrize("layout, radius", [("i1x1,t1", "auto:1"), ("i64x64,t1", "auto:1e308")])
def test_centered_stage_resolves_the_radius(capsys, layout, radius):
    for stage in ("centered", "fused"):
        code, stdout, stderr = run_cli(capsys, "project", "--layout", layout, "--stage", stage,
                                   "--radius", radius)
        assert (code, stdout) == (2, "") and len(stderr.splitlines()) == 1, stderr
