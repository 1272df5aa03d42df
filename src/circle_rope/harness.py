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

from .geometry import CipConfig
from .metrics import ptd_of
from .rope import RotaryParams, apply_rotary, rotation_angles
from .schemes import IMAGE, TEXT, IndexedSequence, Segment, assign


class HarnessError(ValueError):
    pass


class Variant(str, Enum):
    ORIGINAL = "original"
    CIRCLE = "circle"


class ScheduleStrategy(str, Enum):
    ALL_CIRCLE = "all"
    UPPER_HALF_CIRCLE = "upper"
    LOWER_HALF_CIRCLE = "lower"
    ALTERNATING = "alt"


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


def _layer_stats(seq: IndexedSequence, queries: np.ndarray, key: np.ndarray,
                 params: RotaryParams) -> LayerStats:
    image_idx = seq.indices(IMAGE)
    rotated_queries = apply_rotary(queries, rotation_angles(seq.indices(TEXT), params))
    rotated_keys = apply_rotary(np.broadcast_to(key, (len(image_idx), len(key))),
                                rotation_angles(image_idx, params))
    logits = rotated_queries @ rotated_keys.T
    spread = float((logits.max(axis=1) - logits.min(axis=1)).max())
    return LayerStats(
        mean=float(logits.mean()),
        std=float(logits.std()),
        spread=spread,
        ptd=ptd_of(seq),
    )


def run_experiment(
    segments: list[Segment],
    config: CipConfig,
    schedule: LayerSchedule,
    params: RotaryParams,
    seed: int,
    schemes: tuple[str, ...] = ("hard", "unordered", "spatial", "circle"),
) -> ExperimentReport:
    """Measure per-layer logit dispersion from text queries to image keys.

    One random query per text token, one shared key for all image tokens;
    all randomness comes from `seed`.
    """
    # Circle's "original" layers run on the spatial indices, so they share
    # the spatial scheme's stats: the cache is keyed by index assignment.
    needed = [*schemes, "spatial"] if "circle" in schemes else schemes
    sequences = {scheme: assign(scheme, segments, config) for scheme in dict.fromkeys(needed)}
    any_seq = sequences[schemes[0]]
    n_text = len(any_seq.indices(TEXT))
    if n_text == 0 or len(any_seq) == n_text:
        raise HarnessError("experiment layout needs both text and image tokens")

    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(params.head_dim)
    queries = rng.standard_normal((n_text, params.head_dim)) * scale
    key = rng.standard_normal(params.head_dim) * scale

    cache: dict[str, LayerStats] = {}
    stats: dict[str, dict[int, LayerStats]] = {}
    for scheme in schemes:
        per_layer: dict[int, LayerStats] = {}
        for layer in range(1, schedule.num_layers + 1):
            active = scheme
            if scheme == "circle" and schedule.variant(layer) is Variant.ORIGINAL:
                active = "spatial"
            if active not in cache:
                cache[active] = _layer_stats(sequences[active], queries, key, params)
            per_layer[layer] = cache[active]
        stats[scheme] = per_layer
    return ExperimentReport(stats)
