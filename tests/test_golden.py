"""Golden stdout digests of `attn`, `ptd` and `project` runs.

The digests are the ones the benchmark records in perfbench/cli_expected.json
(exit code, stdout sha256, stdout bytes); this test only reads that file.
The `attn` runs change in their last digit if a rotated key array is not
C-contiguous, because the logit matmul then sums in another order. The `ptd`
runs change if the block-wise PTD sum adds in another order than numpy's
pairwise sum over the whole table; `ptd-csv-large` (64 x 1024 cells) spans
more than one block. The `project` runs pin every stage of the projection
pipeline in every output format, and the config cases pin how a config file
and a flag combine.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from circle_rope.cli import main

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "cli_expected.json"

CASES = {
    "attn-hd128": (["attn", "--layout", "i8x8,t16", "--layers", "12", "--head-dim", "128",
                    "--sections", "16,24,24", "--seed", "5"], None, {}),
    "attn-env-seed": (["attn", "--layout", "t4,i6x6,t4", "--layers", "8", "--head-dim", "32",
                       "--schemes", "circle,spatial"], None, {"CIRCLE_ROPE_SEED": "11"}),
    "config-attn": (["attn", "--layout", "i5x5,t6"],
                    "layers = 6\nschedule = upper\nhead-dim = 16\nsections = 4,2,2\nseed = 9\n",
                    {}),
    "ptd-table": (["ptd", "--layout", "t8,i8x8,t8"], None, {}),
    "ptd-json": (["ptd", "--layout", "i16x16,t32,i8x8", "--format", "json"], None, {}),
    "ptd-csv-large": (["ptd", "--layout", "i32x32,t64", "--format", "csv"], None, {}),
    "ptd-auto-radius": (["ptd", "--layout", "i12x9,t20", "--radius", "auto:1.5"], None, {}),
    "ptd-alpha0-beta0": (["ptd", "--layout", "i6x6,t6", "--alpha", "0", "--beta", "0"],
                         None, {}),
    "ptd-one-scheme": (["ptd", "--layout", "t3,i10x5,t7", "--scheme", "circle"], None, {}),
    "config-ptd-json": (["ptd", "--layout", "i8x8,t8"],
                        "format = json\nradius = auto:1.5\nschemes = hard,circle\n", {}),
    "readme-project": (["project", "--layout", "i3x3,t1", "--stage", "projected", "--alpha",
                        "0.5", "--radius", "10", "--format", "csv"], None, {}),
    "accept-project": (["project", "--layout", "i4x3,t2", "--stage", "projected",
                        "--format", "json"], None, {}),
    "project-auto-alpha0": (["project", "--layout", "i8x8,t2", "--stage", "circle2d",
                             "--radius", "auto:2", "--alpha", "0"], None, {}),
    "project-alpha1-beta0": (["project", "--layout", "i8x6,t2", "--stage", "fused", "--alpha",
                              "1", "--beta", "0", "--format", "table"], None, {}),
    "project-two-images": (["project", "--layout", "i5x4,t3,i16x12", "--stage", "fused",
                            "--radius", "fixed:4", "--format", "json"], None, {}),
    **{f"project-{layout}-{stage}-{fmt}": (["project", "--layout", layout, "--stage", stage,
                                            "--format", fmt], None, {})
       for layout in ("i3x3,t1", "i64x64,t8")
       for stage in ("centered", "circle2d", "projected", "fused")
       for fmt in ("csv", "json", "table")},
    "config-beta1": (["ptd", "--layout", "i3x3,t5", "--format", "csv"],
                     "beta = 1.0\nalpha = 0.25  # flags win over this\n", {}),
    "config-flag-wins": (["ptd", "--layout", "i3x3,t5", "--beta", "0", "--format", "csv"],
                         "beta = 1.0\nalpha = 0.25  # flags win over this\n", {}),
    "config-project": (["project", "--layout", "i6x5,t2", "--stage", "fused"],
                       "alpha=0\nbeta=0.5\nformat=table\nradius=fixed:4\n", {}),
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_stdout_digest(case_id, tmp_path, monkeypatch):
    argv, config, env = CASES[case_id]
    monkeypatch.delenv("CIRCLE_ROPE_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        cfg = tmp_path / f"{case_id}.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    out = io.StringIO()
    code = main(argv, out=out)
    data = out.getvalue().encode()
    expected = json.loads(EXPECTED.read_text())[case_id]
    assert [code, hashlib.sha256(data).hexdigest(), len(data)] == expected
