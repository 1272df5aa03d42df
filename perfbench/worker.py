"""Benchmark worker: the one process that does a workload's work.

Started by run.py in a fresh interpreter, so that set-up time and peak RSS
belong to the work alone (the runner's oracles import scipy). It imports
circle_rope, builds the seeded inputs, then runs a closed loop: one caller
sends the next operation only after the previous one returns. It prints one
JSON object: per-operation input index, latency and output, peak RSS and,
in trace mode, the per-layer figures.

Modes:
  setup  build the inputs, report when the first operation could start, exit
  run    measure untraced for --seconds
  trace  measure untraced for half of --seconds, then traced for the other half
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from circle_rope import cli, geometry, harness, metrics, rope, schemes

import workloads as W

SPAWN_IMPORT_SAMPLES = 5


def _ptd_op(layout: str) -> list:
    """The four-scheme PTD table, as `circle-rope ptd` computes it."""
    segments = schemes.parse_layout(layout)
    config = geometry.CipConfig()
    table = []
    for scheme in W.SCHEMES:
        matrix = metrics.distance_matrix(schemes.assign(scheme, segments, config))
        table.append([metrics.ptd(matrix), matrix.convention])
    return table


def _attn_op(item: dict) -> dict:
    schedule = harness.make_schedule(W.ATTN_LAYERS, harness.ScheduleStrategy(item["schedule"]))
    params = rope.RotaryParams(head_dim=item["head_dim"], sections=tuple(item["sections"]))
    report = harness.run_experiment(schemes.parse_layout(item["layout"]), geometry.CipConfig(),
                                    schedule, params, seed=item["seed"])
    return report.as_dict()


def _digest(data: bytes) -> list:
    return [hashlib.sha256(data).hexdigest(), len(data)]


class CliRunner:
    """Runs catalogue cases as `python -m circle_rope.cli` child processes,
    or in-process through cli.main(argv, out=StringIO()) for tracing."""

    def __init__(self, config_dir: str) -> None:
        self.config_dir = config_dir
        self.env = {k: v for k, v in os.environ.items() if k != "CIRCLE_ROPE_SEED"}
        self.stdout_bytes = 0

    def spawn(self, case: dict) -> list:
        proc = subprocess.run([sys.executable, "-m", "circle_rope.cli",
                               *W.cli_argv(case, self.config_dir)],
                              capture_output=True, env={**self.env, **case["env"]},
                              cwd=self.config_dir, timeout=60)
        return [proc.returncode, *_digest(proc.stdout)]

    def in_process(self, case: dict) -> list:
        out = io.StringIO()
        saved = dict(os.environ)
        os.environ.update(case["env"])
        try:
            with contextlib.redirect_stderr(io.StringIO()), \
                    contextlib.chdir(self.config_dir):
                code = cli.main(W.cli_argv(case, self.config_dir), out=out)
        finally:
            os.environ.clear()
            os.environ.update(saved)
        data = out.getvalue().encode()
        self.stdout_bytes += len(data)
        return [code, *_digest(data)]


def closed_loop(op, pool: list, seed: int, seconds: float, tracer=None) -> dict:
    """Run whole passes over the pool, each in a fresh seeded order, until
    about `seconds` have passed: a new pass starts only while less than half
    of the last pass's duration would run past the deadline, so every run
    holds the same mix of operations."""
    records = []
    start = time.perf_counter()
    cycle = 0
    while True:
        cycle_start = time.perf_counter()
        for index in W.cycle_order(seed, cycle, len(pool)):
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = time.perf_counter()
            try:
                output, error = op(pool[index]), None
            except Exception as exc:  # a failed operation is counted, the loop goes on
                output, error = None, f"{type(exc).__name__}: {exc}"
            records.append([index, time.perf_counter() - t0, output, error])
        cycle += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 >= seconds:
            return {"records": records, "elapsed": now - start, "cycles": cycle}


def _spawn_import_s() -> float:
    samples = []
    for _ in range(SPAWN_IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import circle_rope.cli"], check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--config-dir", required=True)
    parser.add_argument("--spans", help="where trace mode writes its spans (.npz)")
    args = parser.parse_args()

    if args.workload == "ptd-sweep":
        pool, op = W.ptd_sweep_inputs(args.seed), _ptd_op
    elif args.workload == "attn-depth":
        pool, op = W.attn_depth_inputs(args.seed), _attn_op
    else:
        pool = W.cli_cases()
        W.write_cli_configs(pool + W.cli_probes(), args.config_dir)
        runner = CliRunner(args.config_dir)
        op = runner.spawn if args.mode == "run" else runner.in_process
    result = {"ready": time.monotonic()}

    if args.mode == "run":
        result["loop"] = closed_loop(op, pool, args.seed, args.seconds)
    elif args.mode == "trace":
        from tracer import Tracer  # not imported in other modes: set-up time is the program's

        result["untraced"] = closed_loop(op, pool, args.seed, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        if args.workload == "cli-mix":
            runner.stdout_bytes = 0
        try:
            result["loop"] = closed_loop(op, pool, args.seed, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layer = tracer.layer_metrics()
        if args.workload == "cli-mix":
            layer["cli.stdout_bytes"] = runner.stdout_bytes
            layer["cli.spawn_import_s"] = _spawn_import_s()
        result["layer"] = layer
        if args.spans:
            tracer.save(args.spans)
    if args.mode != "setup" and args.workload == "cli-mix":
        result["probes"] = [[case["id"], *op(case)] for case in W.cli_probes()]

    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["maxrss_kb"] = usage.ru_maxrss
    result["children_maxrss_kb"] = children.ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
