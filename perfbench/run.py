"""circle-rope benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload {ptd-sweep,attn-depth,cli-mix} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from ./src.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run. The line before it
is a JSON report: run metadata, sample counts, failed fraction, computed work
counts and the known-defect probes. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
BLAS_THREADS = 1  # pinned for every worker and CLI child; at most nproc
SETUP_SAMPLES = 5  # set-up-only workers per untraced run, besides the measuring one
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CIRCLE_ROPE_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _spawn_worker(args, mode: str, config_dir: str, spans: str | None = None) -> tuple:
    """Run one worker; return (its JSON result, monotonic time it was spawned)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--config-dir", config_dir]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_worker_env(), cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout), spawned


def _pool(workload: str, seed: int) -> list:
    if workload == "ptd-sweep":
        return W.ptd_sweep_inputs(seed)
    if workload == "attn-depth":
        return W.attn_depth_inputs(seed)
    return W.cli_cases()


def _checker(workload: str, pool: list, corrupt: bool):
    """Return check(index, output) -> bool against independent answers."""
    if workload == "cli-mix":
        recorded = json.loads((HERE / "cli_expected.json").read_text())
        expected = {i: recorded[case["id"]] for i, case in enumerate(pool)}
        if corrupt:
            expected[0] = [expected[0][0], "0" * 64, expected[0][2]]
        return lambda index, output: output == expected[index]

    import oracles

    if workload == "ptd-sweep":
        expected = {i: oracles.ptd_table(layout) for i, layout in enumerate(pool)}
        if corrupt:
            expected[0][0][0] += 1.0
        return lambda index, output: oracles.table_matches(output, expected[index])
    expected = {i: oracles.attention_report(item) for i, item in enumerate(pool)}
    if corrupt:
        expected[0]["hard"]["1"] = {**expected[0]["hard"]["1"],
                                    "mean": expected[0]["hard"]["1"]["mean"] + 1.0}
    return lambda index, output: oracles.report_matches(output, expected[index])


def _llc_bytes() -> int | None:
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = int(Path(index, "level").read_text())
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def _metadata(args, pool: list) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "circle_rope").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    working_set = W.max_working_set_bytes(args.workload, pool)
    llc = _llc_bytes()
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pool": [case["id"] for case in pool] if args.workload == "cli-mix" else pool,
        "working_set_bytes_computed": working_set,
        "llc_bytes": llc,
        "working_set_over_llc": working_set / llc if llc else None,
    }


def _failures(records: list, check) -> list:
    return [{"op": number, "input": index, "error": error}
            for number, (index, _latency, output, error) in enumerate(records)
            if error is not None or not check(index, output)]


def _probe_report(probes: list) -> list:
    empty = hashlib.sha256(b"").hexdigest()
    return [{"id": case_id, "exit": code, "stdout_bytes": size,
             "ok": code == 2 and digest == empty}
            for case_id, code, digest, size in probes]


def run(args) -> tuple[dict, dict, list]:
    """Returns (report, metrics, records); raises BenchError on a broken run."""
    if not (ROOT / "src" / "circle_rope" / "__init__.py").is_file():
        raise BenchError(f"no circle_rope package under {ROOT / 'src'}")
    pool = _pool(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    config_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.trace:
            spans = str(OUT_DIR / f"spans-{args.workload}.npz")
            result, _ = _spawn_worker(args, "trace", config_dir, spans)
            setup = []
        else:
            setup = []
            for _ in range(SETUP_SAMPLES):
                ready, spawned = _spawn_worker(args, "setup", config_dir)
                setup.append(ready["ready"] - spawned)
            result, spawned = _spawn_worker(args, "run", config_dir)
            setup.append(result["ready"] - spawned)
    finally:
        shutil.rmtree(config_dir, ignore_errors=True)

    check = _checker(args.workload, pool, args.corrupt_expected)
    loop = result["loop"]
    records = loop["records"] + (result["untraced"]["records"] if args.trace else [])
    failures = _failures(records, check)
    failed = len(failures)
    latencies = [r[1] for r in loop["records"]]
    report = {
        "metadata": _metadata(args, pool),
        "samples": {"operations": len(loop["records"]), "cycles": loop["cycles"],
                    "setup": len(setup), "elapsed_s": loop["elapsed"]},
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "failures": failures[:10],
        "computed_per_cycle": W.computed_work(args.workload, pool),
    }
    if "probes" in result:
        report["probes"] = _probe_report(result["probes"])

    if args.trace:
        untraced = result["untraced"]
        metrics = dict(result["layer"])
        traced_rate = len(loop["records"]) / loop["elapsed"]
        untraced_rate = len(untraced["records"]) / untraced["elapsed"]
        metrics.update({
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.traced_ops_per_s": traced_rate,
            "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
            "cli.probe_failures": sum(not p["ok"] for p in report.get("probes", [])),
            **{f"computed.{k}": v for k, v in report["computed_per_cycle"].items()},
        })
        units = PER_LAYER_UNITS
    else:
        rss_kb = result["children_maxrss_kb" if args.workload == "cli-mix" else "maxrss_kb"]
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "ops_per_s": (len(records) - failed) / loop["elapsed"],
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * deciles[8],
            "peak_rss_mb": rss_kb / 1024,
            "setup_s": statistics.median(setup),
        }
        report["samples"]["beyond_p90"] = sum(t > deciles[8] for t in latencies)
        report["setup_samples_s"] = setup
        units = END_TO_END_UNITS
    return report, {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()}, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="perturb one expected value; the smoke test uses this to "
                             "show that a wrong output counts as a failed operation")
    args = parser.parse_args(argv)
    try:
        report, metrics, records = run(args)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for probe in report.get("probes", []):
        if not probe["ok"]:
            print(f"perfbench: known defect: {probe['id']} exited {probe['exit']}, "
                  f"expected 2", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": len(records),
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
