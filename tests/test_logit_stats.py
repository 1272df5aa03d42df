"""The attention layer's logit statistics: equal by == to numpy's mean and
std, computed in place in the one logit table."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from circle_rope.geometry import CipConfig
from circle_rope.harness import ScheduleStrategy, _mean_std, make_schedule, run_experiment
from circle_rope.rope import RotaryParams
from circle_rope.schemes import parse_layout

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
