"""Golden stdout digests of `attn` and `ptd` runs.

The digests are the ones the benchmark records in perfbench/cli_expected.json
(exit code, stdout sha256, stdout bytes); this test only reads that file.
The `attn` runs change in their last digit if a rotated key array is not
C-contiguous, because the logit matmul then sums in another order. The `ptd`
runs change if the block-wise PTD sum adds in another order than numpy's
pairwise sum over the whole table; `ptd-csv-large` (64 x 1024 cells) spans
more than one block.
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
