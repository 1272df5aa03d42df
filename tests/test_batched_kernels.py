"""Property tests: the batched rotary kernel and the attention harness are
bit-identical to row-by-row and per-token references. The PTD kernel's
reference and properties are in test_streamed_ptd.py."""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from circle_rope.geometry import CipConfig, GridSpec
from circle_rope.harness import (
    ExperimentReport,
    ScheduleStrategy,
    make_schedule,
    run_experiment,
)
from circle_rope.metrics import ptd_of
from circle_rope.rope import RotaryParams, apply_rotary, rotation_angles
from circle_rope.schemes import IMAGE, SCHEME_NAMES, TEXT, TextSegment, assign
from test_segment_walk import configs

ROTARY = [RotaryParams(8, sections=(2, 1, 1)), RotaryParams(12, sections=(0, 3, 3)),
          RotaryParams(16, sections=(4, 2, 2)), RotaryParams(64, sections=(16, 8, 8)),
          RotaryParams(128, sections=(16, 24, 24))]

seeds = st.integers(0, 2**32 - 1)
text_run = st.integers(1, 10).map(TextSegment)
image = st.builds(GridSpec, st.integers(1, 6), st.integers(1, 6))
layouts = st.tuples(text_run, image, st.lists(st.one_of(text_run, image), max_size=3)).flatmap(
    lambda t: st.permutations([t[0], t[1], *t[2]]))


@settings(max_examples=60)
@given(params=st.sampled_from(ROTARY), n=st.integers(1, 40), seed=seeds,
       scale=st.floats(1e-3, 1e4))
def test_rotary_batch_matches_rows(params, n, seed, scale):
    rng = np.random.default_rng(seed)
    index = rng.standard_normal((n, 3)) * scale
    vecs = rng.standard_normal((n, params.head_dim))
    key = rng.standard_normal(params.head_dim)

    angles = rotation_angles(index, params)
    assert np.array_equal(angles, np.stack([rotation_angles(row, params) for row in index]))
    rotated = apply_rotary(vecs, angles)
    assert np.array_equal(rotated, np.stack([apply_rotary(v, a) for v, a in zip(vecs, angles)]))
    broadcast = apply_rotary(np.broadcast_to(key, vecs.shape), angles)
    assert np.array_equal(broadcast, np.stack([apply_rotary(key, a) for a in angles]))


def _reference_layer_stats(seq, queries, key, params):
    """The per-token harness kernel: one rotation call per query and per key."""
    rotated_keys = np.stack(
        [apply_rotary(key, rotation_angles(idx, params)) for idx in seq.indices(IMAGE)])
    rotated_queries = np.stack(
        [apply_rotary(q, rotation_angles(idx, params))
         for q, idx in zip(queries, seq.indices(TEXT))])
    logits = rotated_queries @ rotated_keys.T
    return {"mean": float(logits.mean()), "std": float(logits.std()),
            "spread": float((logits.max(axis=1) - logits.min(axis=1)).max()),
            "ptd": ptd_of(seq)}


def _reference_report(segments, config, schedule, params, seed, schemes):
    """Per-scheme caches, circle's original layers on a separately assigned
    spatial sequence."""
    sequences = {scheme: assign(scheme, segments, config) for scheme in schemes}
    n_text = len(next(iter(sequences.values())).indices(TEXT))
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(params.head_dim)
    queries = rng.standard_normal((n_text, params.head_dim)) * scale
    key = rng.standard_normal(params.head_dim) * scale
    spatial = assign("spatial", segments, config)
    stats = {}
    for scheme, seq in sequences.items():
        cache, per_layer = {}, {}
        for layer in range(1, len(schedule) + 1):
            original = scheme == "circle" and not schedule[layer - 1]
            if original not in cache:
                cache[original] = _reference_layer_stats(spatial if original else seq,
                                                         queries, key, params)
            per_layer[str(layer)] = cache[original]
        stats[scheme] = per_layer
    return ExperimentReport(stats)


@settings(max_examples=40)
@given(segments=layouts, config=configs, params=st.sampled_from(ROTARY),
       strategy=st.sampled_from(list(ScheduleStrategy)), layers=st.integers(1, 6),
       seed=seeds, schemes=st.lists(st.sampled_from(SCHEME_NAMES), min_size=1, max_size=4,
                                    unique=True).map(tuple))
def test_report_matches_per_token_reference(segments, config, params, strategy, layers, seed,
                                            schemes):
    schedule = make_schedule(layers, strategy)
    got = run_experiment(segments, config, schedule, params, seed=seed, schemes=schemes)
    expected = _reference_report(segments, config, schedule, params, seed, schemes)
    assert json.dumps(got.as_dict(), sort_keys=True) == \
        json.dumps(expected.as_dict(), sort_keys=True)


def test_alt_report_shares_spatial_dict():
    segments = [GridSpec(3, 3), TextSegment(5)]
    schedule = make_schedule(4, ScheduleStrategy.ALTERNATING)
    report = run_experiment(segments, CipConfig(), schedule, ROTARY[0], seed=2)
    d = report.as_dict()
    assert d["circle"]["1"] is d["spatial"]["1"]
    assert d["circle"]["3"] is d["spatial"]["1"]
    assert d["circle"]["2"] is not d["spatial"]["2"]
    assert d["hard"]["1"] is d["hard"]["4"]
    # every scheme shares one key string per layer, so that a caller keeping
    # many reports does not hold a copy of the keys per scheme
    assert all(a is b for a, b in zip(d["hard"], d["circle"]))
