"""Smoke test of the benchmark itself (about two minutes).

    python3 perfbench/smoke.py

For every workload it makes a short untraced and a short traced run and
asserts that the result line names every metric of BENCHMARK.json with its
unit and that every output checked out. It then corrupts one expected value
per workload and asserts the run reports a failed operation, and runs the
benchmark in a copy without the program to assert it exits non-zero without
printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
                           *args], capture_output=True, text=True, cwd=cwd, timeout=180)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for workload in WORKLOADS:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            result = result_line(bench("--workload", workload, "--trace", trace))
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared}
            if units != wanted:
                raise AssertionError(f"{workload} trace={trace}: metrics {units} != {wanted}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace={trace}: {result}")
            print(f"ok  {workload} trace={trace}: {len(units)} metrics, "
                  f"{result['attempted']} operations checked")
        result = result_line(bench("--workload", workload, "--trace", "0", "--corrupt-expected"))
        if result["correct"] or result["failed"] < 1:
            raise AssertionError(f"{workload}: corrupted expected value not reported: {result}")
        print(f"ok  {workload}: corrupted expected value counted as "
              f"{result['failed']} failed operation(s)")

    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench-out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError(f"run without the program: exit {proc.returncode}, "
                                 f"stdout {proc.stdout!r}")
        print(f"ok  without src/: exit {proc.returncode}, nothing on stdout")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
