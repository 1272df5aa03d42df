"""Record the exit code and stdout digest of every cli-mix catalogue case.

    python3 perfbench/record_cli.py

Writes perfbench/cli_expected.json. The committed file was recorded from the
unmodified program; CLI stdout must stay byte-identical, so re-record only
when a case is added, never to absorb a changed output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["PYTHONPATH"] = str(ROOT / "src")
os.environ.pop("CIRCLE_ROPE_SEED", None)
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as W  # noqa: E402
from worker import CliRunner  # noqa: E402


def main() -> int:
    cases = W.cli_cases()
    config_dir = tempfile.mkdtemp(prefix="record-", dir=ROOT)
    try:
        W.write_cli_configs(cases, config_dir)
        runner = CliRunner(config_dir)
        recorded = {}
        for case in cases:
            spawned = runner.spawn(case)
            if spawned != runner.in_process(case):
                raise SystemExit(f"{case['id']}: subprocess and in-process outputs differ")
            if case["id"].startswith(("invalid-", "bad-", "missing-")) and spawned[0] != 2:
                raise SystemExit(f"{case['id']}: expected exit 2, got {spawned[0]}")
            recorded[case["id"]] = spawned
    finally:
        shutil.rmtree(config_dir)
    lines = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in recorded.items())
    (HERE / "cli_expected.json").write_text("{\n" + lines + "\n}\n")
    print(f"recorded {len(recorded)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
