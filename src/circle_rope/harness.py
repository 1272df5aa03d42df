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
from dataclasses import dataclass

import numpy as np

from .metrics import ptd_of
from .rope import RotaryParams, apply_rotary, rotate_key, rotation_angles
from .schemes import IMAGE, TEXT, IndexedSequence, assign
from .spec import SCHEME_NAMES, CipConfig, CircleRopeError, ScheduleStrategy, Segment, token_counts


@dataclass(frozen=True)
class LayerSchedule:
    """Per layer, from layer 1 up: True if the circle scheme uses its circle
    indices there, False if it uses the spatial ones."""

    circle: tuple[bool, ...]

    @property
    def num_layers(self) -> int:
        return len(self.circle)


# Whether `layer` uses circle indices, given the split ceil(n/2) of n layers.
_RULES = {
    ScheduleStrategy.ALL_CIRCLE: lambda layer, split: True,
    ScheduleStrategy.UPPER_HALF_CIRCLE: lambda layer, split: layer > split,
    ScheduleStrategy.LOWER_HALF_CIRCLE: lambda layer, split: layer <= split,
    ScheduleStrategy.ALTERNATING: lambda layer, split: layer % 2 == 0,
}


def make_schedule(num_layers: int, strategy: ScheduleStrategy) -> LayerSchedule:
    """Build a schedule. Alternating puts circle indices on even layers;
    upper/lower split at ceil(n/2)."""
    if num_layers < 1:
        raise CircleRopeError(f"num_layers must be >= 1, got {num_layers}")
    # a plain string equals its member, so test the type, not the key
    if not isinstance(strategy, ScheduleStrategy):
        raise CircleRopeError(f"unknown strategy {strategy!r}")
    split = math.ceil(num_layers / 2)
    return LayerSchedule(tuple(_RULES[strategy](layer, split)
                               for layer in range(1, num_layers + 1)))


@dataclass(frozen=True)
class ExperimentReport:
    """scheme -> layer (from 1) -> {mean, std, spread, ptd} of that layer:
    the overall mean and std of the text-to-image logits, the largest
    per-query spread (max - min over image keys), and the PTD of the active
    index assignment. Layers on the same assignment share one dict."""

    stats: dict[str, dict[int, dict[str, float]]]

    def as_dict(self) -> dict:
        """scheme -> layer string -> the shared stats dicts themselves, so
        mutating one mutates every layer that holds it. The schemes share
        one key string per layer as well, which keeps the memory of a caller
        that holds many reports (the benchmark keeps each one) in check."""
        names = {layer: str(layer) for layers in self.stats.values() for layer in layers}
        return {scheme: {names[layer]: s for layer, s in layers.items()}
                for scheme, layers in self.stats.items()}


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
    stats: dict[str, dict[int, dict[str, float]]] = {}
    for scheme in schemes:
        stats[scheme] = {}
        for layer, circle in enumerate(schedule.circle, 1):
            active = "spatial" if scheme == "circle" and not circle else scheme
            if active not in cache:
                cache[active] = _layer_stats(assign(active, segments, config), queries, key,
                                             params)
            stats[scheme][layer] = cache[active]
    return ExperimentReport(stats)
