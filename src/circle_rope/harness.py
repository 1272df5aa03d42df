"""Toy attention harness: measures how much text-to-image attention logits
vary with image position alone.

Every image key shares one random content vector, so any per-query logit
spread comes purely from positional rotation. Per layer the schedule says
whether the circle scheme uses its circle indices; on the other layers it
uses the spatial indices. The other schemes keep their own indices at every
depth. The schedule and its rules live in `spec`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .metrics import ptd_of
from .rope import apply_rotary, rotate_key, rotation_angles
from .schemes import IMAGE, TEXT, IndexedSequence, assign
# make_schedule and its types are re-exported: the benchmark resolves them here
from .spec import SCHEME_NAMES, CipConfig, CircleRopeError, LayerSchedule, RotaryParams, \
    ScheduleStrategy, Segment, make_schedule, token_counts


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
