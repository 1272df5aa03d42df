"""Toy attention harness: measures how much text-to-image attention logits
vary with image position alone.

Every image key shares one random content vector, so any per-query logit
spread comes purely from positional rotation. Per layer the schedule says
whether the circle scheme uses its circle indices; on the other layers it
uses the spatial indices. The other schemes keep their own indices at every
depth.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .metrics import ptd_of
from .rope import RotaryParams, apply_rotary, rotate_key, rotation_angles
from .schemes import IMAGE, TEXT, IndexedSequence, assign
from .spec import SCHEME_NAMES, CipConfig, CircleRopeError, ScheduleStrategy, Segment, token_counts


class LayerSchedule(tuple):
    """Per layer, from layer 1 up: True if the circle scheme uses its circle
    indices there, False if it uses the spatial ones. `num_layers` is the
    length, kept for the benchmark's tracer."""

    num_layers = property(len)


def make_schedule(num_layers: int, strategy: ScheduleStrategy) -> LayerSchedule:
    """Build a schedule. Alternating puts circle indices on even layers;
    upper/lower split at ceil(n/2)."""
    if num_layers < 1:
        raise CircleRopeError(f"num_layers must be >= 1, got {num_layers}")
    # a plain string equals its member, so test the type, not the key
    if not isinstance(strategy, ScheduleStrategy):
        raise CircleRopeError(f"unknown strategy {strategy!r}")
    split = math.ceil(num_layers / 2)
    rule = {
        ScheduleStrategy.ALL_CIRCLE: lambda layer: True,
        ScheduleStrategy.UPPER_HALF_CIRCLE: lambda layer: layer > split,
        ScheduleStrategy.LOWER_HALF_CIRCLE: lambda layer: layer <= split,
        ScheduleStrategy.ALTERNATING: lambda layer: layer % 2 == 0,
    }[strategy]
    return LayerSchedule(rule(layer) for layer in range(1, num_layers + 1))


class ExperimentReport(dict):
    """scheme -> layer string (from "1") -> {mean, std, spread, ptd} of that
    layer: the overall mean and std of the text-to-image logits, the largest
    per-query spread (max - min over image keys), and the PTD of the active
    index assignment. Layers on the same assignment share one stats dict, and
    all reports in a process share one interned key string per layer, which
    keeps a caller that holds many reports (the benchmark keeps each) small."""

    def as_dict(self) -> ExperimentReport:
        """The report itself, kept for the benchmark's worker."""
        return self


def _mean_std(table: np.ndarray) -> tuple[float, float]:
    """`table.mean()` and `table.std()`, equal to them by ==, from two sums
    over the table instead of three: numpy's `_var` sums the same squared
    deviations in the same order. Overwrites `table` with them."""
    n = table.size
    mean = np.add.reduce(table, axis=None) / n
    np.subtract(table, mean, out=table)
    np.square(table, out=table)
    return float(mean), float(np.sqrt(np.add.reduce(table, axis=None) / n))


def _layer_stats(seq: IndexedSequence, queries: np.ndarray, key: np.ndarray,
                 params: RotaryParams) -> dict[str, float]:
    rotated_queries = apply_rotary(queries, rotation_angles(seq.indices(TEXT), params))
    logits = rotated_queries @ rotate_key(key, seq.indices(IMAGE), params).T
    spread = float((logits.max(axis=1) - logits.min(axis=1)).max())
    mean, std = _mean_std(logits)
    return {"mean": mean, "std": std, "spread": spread, "ptd": ptd_of(seq)}


def run_experiment(
    segments: list[Segment],
    config: CipConfig,
    schedule: LayerSchedule,
    params: RotaryParams,
    seed: int,
    schemes: tuple[str, ...] = SCHEME_NAMES,
) -> ExperimentReport:
    """Measure per-layer logit dispersion from text queries to image keys.

    One random query per text token, one shared key for all image tokens;
    all randomness comes from `seed`.
    """
    n_text, n_image = token_counts(segments)
    if n_text == 0 or n_image == 0:
        raise CircleRopeError("experiment layout needs both text and image tokens")

    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(params.head_dim)
    queries = rng.standard_normal((n_text, params.head_dim)) * scale
    key = rng.standard_normal(params.head_dim) * scale

    # Circle's other layers run on the spatial indices, so they share
    # the spatial scheme's stats: the cache is keyed by index assignment.
    cache: dict[str, dict[str, float]] = {}
    names = [sys.intern(str(layer)) for layer in range(1, len(schedule) + 1)]
    report = ExperimentReport()
    for scheme in schemes:
        report[scheme] = layers = {}
        for name, circle in zip(names, schedule):
            active = "spatial" if scheme == "circle" and not circle else scheme
            if active not in cache:
                cache[active] = _layer_stats(assign(active, segments, config), queries, key,
                                             params)
            layers[name] = cache[active]
    return report
