"""The BENCH trajectory: the benchmark's end-to-end metrics over a fixed seed
set, with the machine's load over every run, in one JSON file.

    python tools/bench.py --out BENCH_<n>.json       # 5 seeds x 30 s x 3 workloads
    python tools/bench.py --seeds 1 --seconds 2 --out /tmp/bench.json > /tmp/bench.out
    python tools/bench.py --check /tmp/bench.json /tmp/bench.out

For each seed, and each workload of BENCHMARK.json in turn, it runs
`perfbench/run.py --trace 0` unchanged in a child process. Around each run it
reads the `idle` and `steal` columns of /proc/stat and /proc/loadavg, so that
a round on a loaded machine shows as one. The file holds the report's
metadata once, the CPU model and the OpenBLAS core, every end-to-end metric's
raw values with their median and interquartile range (IQR) per workload, and
the runs with their load.

It prints each metric's median and IQR beside those of the newest
BENCH_<n>.json at the repository root (other than its output), and their
ratio. `--check` validates a written file and such a printout: their form,
not their numbers. Only the standard library is used; the OpenBLAS core is
read from the library that numpy ships, without importing numpy.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)  # --seeds N takes the first N
SCHEMA = 1
# report metadata that differs between runs; the rest is stored once
PER_RUN = ("workload", "seed", "pool", "working_set_bytes_computed", "working_set_over_llc")
RUN_KEYS = ("workload", "seed", "attempted", "failed", "ticks", "idle_ticks", "steal_ticks",
            "loadavg_start", "loadavg_end")


def openblas_core() -> str | None:
    """The core name of the OpenBLAS kernel numpy runs on (or that
    OPENBLAS_CORETYPE forces), read from the scipy-openblas library in
    numpy.libs; None if there is none."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return None
    libs = sorted((Path(spec.origin).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*"))
    if not libs:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def cpu_model() -> str | None:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def load() -> dict:
    """The aggregate CPU ticks of /proc/stat (all, idle and steal) and the
    three load averages of /proc/loadavg."""
    cpu = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    return {"ticks": sum(cpu), "idle": cpu[3], "steal": cpu[7],
            "loadavg": [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]}


def declared() -> tuple[list[str], dict[str, str]]:
    """BENCHMARK.json's workload names and end-to-end metric units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]})


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """One run of perfbench/run.py: its metadata, its metric values and the run record."""
    before = load()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + 900)  # six workers of at most 150 s each, and checks
    after = load()
    if proc.returncode != 0:
        raise SystemExit(f"bench: {workload} seed {seed}: perfbench/run.py exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line)["report"], json.loads(result_line)
    run = {"workload": workload, "seed": seed, "attempted": result["attempted"],
           "failed": result["failed"], "ticks": after["ticks"] - before["ticks"],
           "idle_ticks": after["idle"] - before["idle"],
           "steal_ticks": after["steal"] - before["steal"],
           "loadavg_start": before["loadavg"], "loadavg_end": after["loadavg"]}
    return (report["metadata"], {name: m["value"] for name, m in result["metrics"].items()},
            run)


def summary(values: list[float]) -> dict:
    """The raw values, their median and their IQR (inclusive quartiles)."""
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"values": values, "median": statistics.median(values),
            "iqr": quartiles[2] - quartiles[0]}


def bench(seeds: list[int], seconds: float) -> dict:
    workloads, units = declared()
    metadata = None
    values = {w: {name: [] for name in units} for w in workloads}
    runs = {w: [] for w in workloads}
    for seed in seeds:  # workloads interleaved, so that a slow spell spreads over all three
        for workload in workloads:
            meta, metrics, run = run_once(workload, seed, seconds)
            meta = {k: v for k, v in meta.items() if k not in PER_RUN}
            if metadata is not None and meta != metadata:
                raise SystemExit(f"bench: the metadata changed between runs: {metadata} "
                                 f"then {meta}")
            metadata = meta
            for name in units:
                values[workload][name].append(metrics[name])
            runs[workload].append(run)
            print(f"ran {workload} seed {seed}", file=sys.stderr, flush=True)
    return {"schema": SCHEMA, "metadata": metadata,
            "machine": {"cpu_model": cpu_model(), "openblas_core": openblas_core()},
            "seeds": seeds,
            "workloads": {w: {"metrics": {name: {"unit": units[name],
                                                 **summary(values[w][name])}
                                          for name in units},
                              "runs": runs[w]}
                          for w in workloads}}


def validate(data: dict) -> None:
    """Raise ValueError unless `data` has the form `bench` writes."""
    workloads, units = declared()

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"BENCH file: {what}")

    need(data.get("schema") == SCHEMA, f"schema is not {SCHEMA}")
    need(isinstance(data.get("metadata"), dict)
         and {"git_sha", "src_sha256", "python", "numpy", "blas", "nproc", "seconds"}
         <= set(data["metadata"]), "metadata lacks a key")
    need(set(data.get("machine", {})) == {"cpu_model", "openblas_core"}, "machine keys")
    seeds = data.get("seeds")
    need(isinstance(seeds, list) and seeds and all(type(s) is int for s in seeds), "seeds")
    need(list(data.get("workloads", {})) == workloads, f"workloads are not {workloads}")
    for workload, entry in data["workloads"].items():
        need(list(entry.get("metrics", {})) == list(units), f"{workload}: metric names")
        for name, metric in entry["metrics"].items():
            need(metric.get("unit") == units[name], f"{workload} {name}: unit")
            raw = metric.get("values")
            need(isinstance(raw, list) and len(raw) == len(seeds)
                 and all(isinstance(v, (int, float)) for v in raw), f"{workload} {name}: values")
            need({key: metric.get(key) for key in ("values", "median", "iqr")} == summary(raw),
                 f"{workload} {name}: median or IQR does not match the values")
        need([run.get("seed") for run in entry.get("runs", [])] == seeds, f"{workload}: runs")
        for run in entry["runs"]:
            need(tuple(run) == RUN_KEYS and run["workload"] == workload,
                 f"{workload}: run keys")


def newest_bench(exclude: Path) -> Path | None:
    """The BENCH_<n>.json at the repository root with the largest n, other than `exclude`."""
    found = [(int(match[1]), path) for path in ROOT.glob("BENCH_*.json")
             if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
             and path.resolve() != exclude.resolve()]
    return max(found)[1] if found else None


def _line(workload: str, name: str, metric: dict, base: dict | None,
          base_name: str | None) -> str:
    line = f"{workload:<11} {name:<15} median {metric['median']:.4g} IQR {metric['iqr']:.3g}"
    if base is None:
        return f"{line} | no earlier BENCH file"
    ratio = metric["median"] / base["median"] if base["median"] else float("nan")
    return (f"{line} | {base_name} median {base['median']:.4g} IQR {base['iqr']:.3g} "
            f"| ratio {ratio:.3f}")


def printout(data: dict, out: Path) -> str:
    """One line per workload and metric, beside the newest earlier BENCH file."""
    base_path = newest_bench(out)
    base = json.loads(base_path.read_text())["workloads"] if base_path else {}
    lines = []
    for workload, entry in data["workloads"].items():
        for name, metric in entry["metrics"].items():
            old = base.get(workload, {}).get("metrics", {}).get(name)
            lines.append(_line(workload, name, metric, old, base_path and base_path.name))
        for run in entry["runs"]:
            ticks = run["ticks"] or 1
            lines.append(f"  load {workload} seed {run['seed']}: steal "
                         f"{run['steal_ticks'] / ticks:.1%}, idle {run['idle_ticks'] / ticks:.1%}"
                         f" of {run['ticks']} ticks; loadavg {run['loadavg_start'][0]} -> "
                         f"{run['loadavg_end'][0]}")
    return "\n".join(lines)


def check(path: Path, printed: str) -> None:
    """Raise ValueError unless `path` is a valid BENCH file and `printed`
    holds its ratio line for every workload and metric."""
    data = json.loads(path.read_text())
    validate(data)
    base_path = newest_bench(path)
    tail = (rf"{re.escape(base_path.name)} median \S+ IQR \S+ \| ratio \S+" if base_path
            else "no earlier BENCH file")
    for workload, entry in data["workloads"].items():
        for name in entry["metrics"]:
            pattern = rf"{re.escape(workload)}\s+{re.escape(name)}\s+median \S+ IQR \S+ \| {tail}"
            if not any(re.fullmatch(pattern, line) for line in printed.splitlines()):
                raise ValueError(f"printout: no line for {workload} {name} of the form "
                                 f"{pattern!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=5, help=f"how many of {SEEDS} to run")
    parser.add_argument("--seconds", type=float, default=30.0, help="per run (default: 30)")
    parser.add_argument("--out", type=Path, help="the BENCH file to write")
    parser.add_argument("--check", nargs=2, type=Path, metavar=("JSON", "PRINTOUT"),
                        help="validate a written BENCH file and its printout, and exit")
    args = parser.parse_args(argv)
    if args.check:
        try:
            check(args.check[0], args.check[1].read_text())
        except ValueError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(f"ok  {args.check[0]} and its printout")
        return 0
    if args.out is None or not 1 <= args.seeds <= len(SEEDS):
        parser.error(f"give --out, and --seeds from 1 to {len(SEEDS)}")
    data = bench(list(SEEDS[:args.seeds]), args.seconds)
    validate(data)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(printout(data, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
