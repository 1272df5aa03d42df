"""What a CLI call imports. Rejected input exits 2 before numpy is loaded,
and each subcommand loads only the compute modules it uses.

Each check runs `cli.main` in a fresh child process and reads the child's
`sys.modules` after every call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads as W

ROOT = Path(__file__).resolve().parents[1]

# Runs each argv through cli.main and prints, per call, the exit code and
# the numpy and circle_rope modules loaded so far.
CHILD = """
import io, json, sys
from circle_rope import cli
calls = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv, out=io.StringIO())
    calls.append([code, sorted(name for name in sys.modules
                               if name == "numpy" or name.startswith("circle_rope."))])
print(json.dumps(calls))
"""


def loaded_after(argvs, cwd):
    env = {k: v for k, v in os.environ.items() if k != "CIRCLE_ROPE_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_rejected_input_exits_before_numpy_is_imported(tmp_path):
    rejected = [case for case in W.cli_cases()
                if case["id"].startswith(("invalid-", "bad-", "missing-"))]
    assert len(rejected) == 18
    W.write_cli_configs(rejected, str(tmp_path))
    argvs = [W.cli_argv(case, str(tmp_path)) for case in rejected]
    # a layout without text, sections that do not sum to head_dim/2, and
    # auto radii that are degenerate or overflow, at every layer count
    argvs += [["ptd", "--layout", "i3x3"],
              ["attn", "--layout", "i3x3,t5", "--head-dim", "8", "--sections", "1,1,1"],
              ["attn", "--layout", "i1x1,t1", "--radius", "auto:1", "--head-dim", "8",
               "--layers", "1"],
              ["project", "--layout", "i1x1", "--stage", "centered", "--radius", "auto:1"],
              ["ptd", "--layout", "i64x64,t5", "--radius", "auto:1e308"]]
    assert len(argvs) == 23
    for argv, (code, modules) in zip(argvs, loaded_after(argvs, tmp_path)):
        assert code == 2 and "numpy" not in modules, argv


def subcommand_modules(argv, tmp_path):
    [(code, modules)] = loaded_after([argv], tmp_path)
    assert code == 0
    return {name.split(".")[1] for name in modules if name.startswith("circle_rope.")}


def test_project_loads_no_metrics_rope_or_harness(tmp_path):
    modules = subcommand_modules(["project", "--layout", "i3x3,t5", "--stage", "fused"],
                                 tmp_path)
    assert "geometry" in modules
    assert not modules & {"metrics", "rope", "harness"}


def test_ptd_loads_no_rope_or_harness(tmp_path):
    modules = subcommand_modules(["ptd", "--layout", "i3x3,t5"], tmp_path)
    assert {"geometry", "schemes", "metrics"} <= modules
    assert not modules & {"rope", "harness"}
