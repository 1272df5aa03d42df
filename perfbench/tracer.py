"""Span tracing of circle_rope's public functions, from outside the package.

`Tracer.install()` replaces each traced function in every circle_rope module
that holds a reference to it (and each traced method on its class), so nested
calls made through `from .x import f` names are caught without editing the
package. Each span records its name, start, end, parent span and operation
id in flat arrays; the arrays are written out when the run ends and reduced to
per-layer calls, busy seconds and self seconds (a span's duration minus the
durations of its child spans).
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "schemes", "geometry", "metrics", "rope", "harness")
GEOMETRY_STAGES = ("grid_coords", "centralize", "spatial_origin_angles", "grid_index_angles",
                   "mix_angles", "compute_radius", "map_to_circle", "build_plane_basis",
                   "rotate_to_plane", "dual_frame_fusion")

# span name -> (module, attribute path). A dotted attribute is a method.
TARGETS = {
    "cli.main": ("cli", "main"),
    "schemes.parse_layout": ("schemes", "parse_layout"),
    "schemes.assign.hard": ("schemes", "assign_hard"),
    "schemes.assign.unordered": ("schemes", "assign_unordered"),
    "schemes.assign.spatial": ("schemes", "assign_spatial"),
    "schemes.assign.circle": ("schemes", "assign_circle"),
    "schemes.indices": ("schemes", "IndexedSequence.indices"),
    "geometry.cip_transform": ("geometry", "cip_transform"),
    **{f"geometry.{stage}": ("geometry", stage) for stage in GEOMETRY_STAGES},
    "metrics.distance_matrix": ("metrics", "distance_matrix"),
    "metrics.ptd": ("metrics", "ptd"),
    "metrics.ptd_of": ("metrics", "ptd_of"),
    "rope.frequencies": ("rope", "RotaryParams.frequencies"),
    "rope.rotation_angles": ("rope", "rotation_angles"),
    "rope.apply_rotary": ("rope", "apply_rotary"),
    "rope.logit": ("rope", "logit"),
    "harness.run_experiment": ("harness", "run_experiment"),
    "harness.layer_stats": ("harness", "_layer_stats"),
}

# Per-layer metrics of a traced run: name -> unit. Zero where a workload does
# not reach a layer.
PER_LAYER_UNITS = {
    "cli.main.calls": "count", "cli.main.s": "s", "cli.self_s": "s",
    "cli.spawn_import_s": "s", "cli.stdout_bytes": "bytes", "cli.probe_failures": "count",
    "schemes.parse_layout.s": "s",
    **{f"schemes.assign.{scheme}.{kind}": unit
       for scheme in ("hard", "unordered", "spatial", "circle")
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "schemes.indices.calls": "count", "schemes.indices.s": "s",
    "geometry.cip_transform.calls": "count", "geometry.cip_transform.s": "s",
    **{f"geometry.{stage}.s": "s" for stage in GEOMETRY_STAGES},
    "metrics.distance_matrix.calls": "count", "metrics.distance_matrix.s": "s",
    "metrics.ptd.s": "s", "metrics.ptd_of.calls": "count", "metrics.pairs": "count",
    "metrics.bytes_computed": "bytes", "metrics.convention.scalar": "count",
    "metrics.convention.planar": "count", "metrics.convention.3d": "count",
    "rope.frequencies.calls": "count", "rope.rotation_angles.calls": "count",
    "rope.rotation_angles.s": "s", "rope.apply_rotary.calls": "count",
    "rope.apply_rotary.s": "s", "rope.logit.calls": "count",
    "harness.run_experiment.s": "s", "harness.layer_evals": "count",
    "harness.layer_slots": "count", "harness.layer_cache_hit_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.untraced_ops_per_s": "op/s", "trace.traced_ops_per_s": "op/s",
    "trace.overhead_frac": "ratio", "trace.spans": "count",
    "computed.distance_cells": "count", "computed.distance_bytes": "bytes",
    "computed.rotations": "count", "computed.logits": "count",
}


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = {"pairs": 0, "scalar": 0, "planar": 0, "3d": 0, "slots": 0}
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installing ---------------------------------------------------------
    def install(self) -> None:
        modules = {layer: importlib.import_module(f"circle_rope.{layer}") for layer in LAYERS}
        holders = [*modules.values(), importlib.import_module("circle_rope")]
        for name_id, (name, (module_name, path)) in enumerate(TARGETS.items()):
            owner, attr = _resolve(modules[module_name], path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, name, original)
            if owner is not modules[module_name]:  # a method: patch its class
                self._set(owner, attr, wrapper)
                continue
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name_id: int, name: str, fn):
        layer = name.split(".", 1)[0]
        after = self._hooks().get(name)
        signature = inspect.signature(fn) if after else None
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, errors = self.starts, self.ends, self.errors

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            stack.append(index)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if after:
                after(result, signature.bind(*args, **kwargs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self) -> dict:
        counters = self.counters

        def on_distance(result, _bound):
            counters["pairs"] += result.values.size
            counters[result.convention] += 1

        def on_experiment(_result, bound):
            bound.apply_defaults()
            counters["slots"] += len(bound.arguments["schemes"]) * \
                bound.arguments["schedule"].num_layers

        return {"metrics.distance_matrix": on_distance, "harness.run_experiment": on_experiment}

    # -- reducing -----------------------------------------------------------
    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), name_id=np.asarray(self.name_ids),
                            parent=np.asarray(self.parents), op=np.asarray(self.ops),
                            start=np.asarray(self.starts), end=np.asarray(self.ends))

    def layer_metrics(self) -> dict:
        name_id = np.asarray(self.name_ids)
        parent = np.asarray(self.parents)
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        nested = parent >= 0
        child = np.zeros(len(duration))
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        busy = np.bincount(name_id, weights=duration, minlength=n)
        self_by_name = np.bincount(name_id, weights=own, minlength=n)
        by_name = {name: (int(calls[i]), float(busy[i])) for i, name in enumerate(self.names)}
        out = {}
        for name, (count, seconds) in by_name.items():
            out[f"{name}.calls"] = count
            out[f"{name}.s"] = seconds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(sum(self_by_name[i] for i, name in
                                               enumerate(self.names)
                                               if name.startswith(layer + ".")))
            out[f"{layer}.errors"] = self.errors[layer]
        c = self.counters
        evals = by_name["harness.layer_stats"][0]
        out.update({
            "metrics.pairs": c["pairs"],
            "metrics.bytes_computed": c["pairs"] * 3 * 8,
            "metrics.convention.scalar": c["scalar"],
            "metrics.convention.planar": c["planar"],
            "metrics.convention.3d": c["3d"],
            "harness.layer_evals": evals,
            "harness.layer_slots": c["slots"],
            "harness.layer_cache_hit_ratio": 1.0 - evals / c["slots"] if c["slots"] else 0.0,
            "trace.spans": len(duration),
        })
        return out
