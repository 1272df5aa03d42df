"""Toy attention harness: measures how much text-to-image attention logits
vary with image position alone.

Every image key shares one random content vector, so any per-query logit
spread comes purely from positional rotation. Per layer the active index
variant is chosen by the schedule: under the circle scheme, "original"
layers use the spatial indices and "circle" layers the projected ones; the
other schemes keep their own indices at every depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metrics import ptd_of
from .rope import RotaryParams, apply_rotary, rotate_key, rotation_angles
from .schemes import IMAGE, TEXT, IndexedSequence, assign
from .spec import SCHEME_NAMES, CipConfig, HarnessError, ScheduleStrategy, Segment, TextSegment


class Variant(str, Enum):
    ORIGINAL = "original"
    CIRCLE = "circle"


@dataclass(frozen=True)
class LayerSchedule:
    """Per-layer index variant assignment; layer numbering is 1-based."""

    assignment: tuple[Variant, ...]

    @property
    def num_layers(self) -> int:
        return len(self.assignment)

    def variant(self, layer: int) -> Variant:
        return self.assignment[layer - 1]


def make_schedule(num_layers: int, strategy: ScheduleStrategy) -> LayerSchedule:
    """Build a schedule. Alternating puts the original indices on odd layers
    and circle indices on even layers; upper/lower split at ceil(n/2)."""
    if num_layers < 1:
        raise HarnessError(f"num_layers must be >= 1, got {num_layers}")
    split = math.ceil(num_layers / 2)
    assignment = []
    for layer in range(1, num_layers + 1):
        if strategy is ScheduleStrategy.ALL_CIRCLE:
            variant = Variant.CIRCLE
        elif strategy is ScheduleStrategy.UPPER_HALF_CIRCLE:
            variant = Variant.CIRCLE if layer > split else Variant.ORIGINAL
        elif strategy is ScheduleStrategy.LOWER_HALF_CIRCLE:
            variant = Variant.CIRCLE if layer <= split else Variant.ORIGINAL
        elif strategy is ScheduleStrategy.ALTERNATING:
            variant = Variant.CIRCLE if layer % 2 == 0 else Variant.ORIGINAL
        else:
            raise HarnessError(f"unknown strategy {strategy!r}")
        assignment.append(variant)
    return LayerSchedule(tuple(assignment))


@dataclass(frozen=True)
class LayerStats:
    """Logit statistics for one (scheme, layer): overall mean and std of
    text-to-image logits, the largest per-query spread (max - min over image
    keys), and the PTD of the active index assignment."""

    mean: float
    std: float
    spread: float
    ptd: float

    def as_dict(self) -> dict[str, float]:
        return {"mean": self.mean, "std": self.std, "spread": self.spread, "ptd": self.ptd}


@dataclass(frozen=True)
class ExperimentReport:
    stats: dict[str, dict[int, LayerStats]]

    def as_dict(self) -> dict:
        """scheme -> layer string -> stats dict. Layers holding the same
        LayerStats share one dict, so mutating one mutates them all."""
        distinct = {id(s): s for layers in self.stats.values() for s in layers.values()}
        dicts = {key: s.as_dict() for key, s in distinct.items()}
        names = {layer: str(layer) for layers in self.stats.values() for layer in layers}
        return {scheme: {names[layer]: dicts[id(s)] for layer, s in layers.items()}
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
                 params: RotaryParams) -> LayerStats:
    rotated_queries = apply_rotary(queries, rotation_angles(seq.indices(TEXT), params))
    logits = rotated_queries @ rotate_key(key, seq.indices(IMAGE), params).T
    spread = float((logits.max(axis=1) - logits.min(axis=1)).max())
    mean, std = _mean_std(logits)
    return LayerStats(mean=mean, std=std, spread=spread, ptd=ptd_of(seq))


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
    n_text = sum(seg.length for seg in segments if isinstance(seg, TextSegment))
    if n_text == 0 or all(isinstance(seg, TextSegment) for seg in segments):
        raise HarnessError("experiment layout needs both text and image tokens")

    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(params.head_dim)
    queries = rng.standard_normal((n_text, params.head_dim)) * scale
    key = rng.standard_normal(params.head_dim) * scale

    # Circle's "original" layers run on the spatial indices, so they share
    # the spatial scheme's stats: the cache is keyed by index assignment.
    cache: dict[str, LayerStats] = {}
    stats: dict[str, dict[int, LayerStats]] = {}
    for scheme in schemes:
        per_layer: dict[int, LayerStats] = {}
        for layer in range(1, schedule.num_layers + 1):
            active = scheme
            if scheme == "circle" and schedule.variant(layer) is Variant.ORIGINAL:
                active = "spatial"
            if active not in cache:
                cache[active] = _layer_stats(assign(active, segments, config), queries, key,
                                             params)
            per_layer[layer] = cache[active]
        stats[scheme] = per_layer
    return ExperimentReport(stats)
