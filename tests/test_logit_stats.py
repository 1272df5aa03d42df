"""The attention layer's logit statistics: equal by == to numpy's mean and
std, computed in place in the one logit table; and the logit-level half of
the paper's bias claim on single-image layouts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circle_rope.geometry import CipConfig, FixedRadius, GridSpec
from circle_rope.harness import ScheduleStrategy, _mean_std, make_schedule, run_experiment
from circle_rope.rope import RotaryParams
from circle_rope.schemes import TextSegment, parse_layout

sides = st.integers(1, 300)
shapes = st.one_of(st.just((1, 1)), st.tuples(st.just(1), sides), st.tuples(sides, st.just(1)),
                   st.tuples(sides, sides))


@settings(max_examples=150)
@given(shape=shapes, seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6),
       offset=st.floats(-1e6, 1e6))
def test_mean_std_equal_numpy(shape, seed, scale, offset):
    table = np.random.default_rng(seed).standard_normal(shape) * scale + offset
    expected = (float(table.mean()), float(table.std()))
    assert _mean_std(table.copy()) == expected


def test_attention_layer_peaks_below_two_logit_tables():
    # 512 text x 4096 image logits: a 16 MiB table. numpy's std() alone
    # allocates a second table for the deviations.
    segments = parse_layout("i64x64,t512")
    table = 512 * 64 * 64 * 8
    tracemalloc.start()
    try:
        run_experiment(segments, CipConfig(), make_schedule(1, ScheduleStrategy.ALL_CIRCLE),
                       RotaryParams(64), seed=0, schemes=("spatial",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table < table


@st.composite
def single_image_layouts(draw):
    """Text runs around one grid of 2 to 32 x 32 tokens, with at least one text token."""
    grid = draw(st.builds(GridSpec, st.integers(1, 32), st.integers(1, 32)).filter(
        lambda grid: grid.num_tokens > 1))
    before = draw(st.integers(0, 32))
    after = draw(st.integers(0 if before else 1, 32))
    return [TextSegment(n) for n in (before,) if n] + [grid] + \
        [TextSegment(n) for n in (after,) if n]


head_dims = st.sampled_from([8, 16, 64, 128])


@settings(max_examples=100)
@given(layout=single_image_layouts(), head_dim=head_dims, seed=st.integers(0, 2**32 - 1),
       layers=st.integers(1, 4))
def test_unordered_spreads_no_logit_over_one_image(layout, head_dim, seed, layers):
    # Every image token shares one index, so each query's logits agree up to
    # rounding: the spread is a few ulps, and exactly 0 only on some cores.
    schedule = make_schedule(layers, ScheduleStrategy.ALTERNATING)
    report = run_experiment(layout, CipConfig(), schedule, RotaryParams(head_dim), seed=seed,
                            schemes=("unordered",))
    assert len(report["unordered"]) == layers
    for stats in report["unordered"].values():
        assert stats["spread"] <= 1e-12


@settings(max_examples=100)
@given(layout=single_image_layouts(), head_dim=head_dims, seed=st.integers(0, 2**32 - 1),
       radius=st.floats(1, 20))
def test_circle_equidistant_image_still_spreads_its_logits(layout, head_dim, seed, radius):
    # At beta = 1 every text token is equidistant from the image (PTD about
    # 0), yet multi-axis RoPE rotates by each axis' own gap, not by the
    # Euclidean distance, so the logits still vary over the image.
    config = CipConfig(alpha=0.5, radius=FixedRadius(radius), beta=1.0)
    report = run_experiment(layout, config, make_schedule(1, ScheduleStrategy.ALL_CIRCLE),
                            RotaryParams(head_dim), seed=seed, schemes=("circle",))
    stats = report["circle"]["1"]
    assert stats["ptd"] <= 1e-9 and stats["spread"] > 0


def test_unordered_zero_spread_holds_per_image_only():
    report = run_experiment(parse_layout("i3x3,t5,i2x2"), CipConfig(),
                            make_schedule(1, ScheduleStrategy.ALL_CIRCLE), RotaryParams(64),
                            seed=0, schemes=("unordered",))
    assert report["unordered"]["1"]["spread"] == pytest.approx(0.415, abs=1e-3)
