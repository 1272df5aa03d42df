"""Golden stdout digests of three `attn` runs.

The digests are the ones the benchmark records in perfbench/cli_expected.json
(exit code, stdout sha256, stdout bytes); this test only reads that file.
These runs change in their last digit if a rotated key array is not
C-contiguous, because the logit matmul then sums in another order.
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
