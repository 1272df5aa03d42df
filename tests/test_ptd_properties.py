"""PTD's invariances as properties over random layouts and all four schemes,
and an independent O((T + I) log I) oracle for the scalar convention, checked
at the CLI's pair limit where no dense reference table fits.

Tolerances are stated against the largest index magnitude M of the sequence:
rounding a shifted or scaled index moves each distance by a few ulps of M, so
PTD moves by at most a small multiple of that; the oracle's prefix sums round
on the same scale.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from circle_rope import cli
from circle_rope.geometry import AutoRadius, CipConfig, FixedRadius, GridSpec
from circle_rope.metrics import distance_matrix, ptd
from circle_rope.schemes import IMAGE, SCHEME_NAMES, TEXT, IndexedSequence, \
    TextSegment, assign, parse_layout

# |PTD(x') - PTD'| <= TOLERANCE * M for any other scale or shift, for circle,
# and for the scalar oracle against `ptd`.
TOLERANCE = 1e-12
INTEGER_SCHEMES = ("hard", "unordered", "spatial")

grids = st.builds(GridSpec, width=st.integers(1, 12), height=st.integers(1, 12))
layouts = st.lists(st.one_of(st.builds(TextSegment, st.integers(1, 8)),
                             grids), min_size=2, max_size=5).filter(
    lambda layout: {type(seg) for seg in layout} == {TextSegment, GridSpec})
configs = st.builds(CipConfig, alpha=st.floats(0, 1),
                    radius=st.one_of(st.builds(FixedRadius, st.floats(1e-2, 1e3)),
                                     st.builds(AutoRadius, st.floats(1e-2, 1e2))),
                    beta=st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
powers_of_two = st.integers(-20, 20).map(lambda k: 2.0 ** k)


def indexed(layout, scheme, config):
    grids_ok = all(seg.num_tokens > 1 for seg in layout if isinstance(seg, GridSpec))
    assume(scheme != "circle" or grids_ok or isinstance(config.radius, FixedRadius))
    return assign(scheme, layout, config)


def moved(seq, scale=1.0, shift=0.0):
    """A fresh sequence with every index mapped to index * scale + shift * (1, 1, 1)."""
    return IndexedSequence(seq.index * scale + shift * np.ones(3), seq.modality)


def ptd_and_convention(seq):
    matrix = distance_matrix(seq)
    return ptd(matrix), matrix.convention


@settings(max_examples=200, deadline=None)
@given(layout=layouts, scheme=st.sampled_from(SCHEME_NAMES), config=configs, scale=powers_of_two)
def test_scaling_by_a_power_of_two_scales_ptd_exactly(layout, scheme, config, scale):
    seq = indexed(layout, scheme, config)
    base, convention = ptd_and_convention(seq)
    assert ptd_and_convention(moved(seq, scale=scale)) == (scale * base, convention)


@settings(max_examples=200, deadline=None)
@given(layout=layouts, scheme=st.sampled_from(INTEGER_SCHEMES), shift=st.integers(-10**6, 10**6))
def test_integer_shift_along_the_text_line_keeps_integer_scheme_ptd_exactly(layout, scheme,
                                                                             shift):
    seq = indexed(layout, scheme, CipConfig())
    assert ptd_and_convention(moved(seq, shift=float(shift))) == ptd_and_convention(seq)


# Conventions from the most to the least collapsed index.
COLLAPSE = {"scalar": 0, "planar": 1, "3d": 2}


@settings(max_examples=300, deadline=None)
@given(layout=layouts, scheme=st.sampled_from(SCHEME_NAMES), config=configs,
       scale=st.floats(1e-3, 1e3), shift=st.floats(-1e6, 1e6))
def test_any_scale_and_shift_hold_within_the_stated_tolerance(layout, scheme, config, scale,
                                                              shift):
    seq = indexed(layout, scheme, config)
    base, convention = ptd_and_convention(seq)
    magnitude = np.abs(seq.index).max()
    for other, expected, bound in [
        (moved(seq, scale=scale), scale * base, TOLERANCE * scale * magnitude),
        (moved(seq, shift=shift), base, TOLERANCE * (magnitude + abs(shift))),
    ]:
        value, other_convention = ptd_and_convention(other)
        if other_convention != convention:
            # The convention compares indices by `==`, so rounding that merges
            # values it told apart moves it toward scalar; nothing else moves it.
            assert COLLAPSE[other_convention] < COLLAPSE[convention]
            assert len(np.unique(other.index)) < len(np.unique(seq.index))
            continue
        assert abs(value - expected) <= bound


def scalar_ptd_oracle(text, image):
    """PTD of the scalar convention from sorted image indices and prefix sums.

    For text index s with k image indices below it, the row sum of
    |s - x_i| is s*k - P[k] + (P[I] - P[k]) - s*(I - k). With m the row mean,
    cells with |s - x_i| > m lie below s - m or above s + m, and those inside
    are split at s; each of the four ranges sums in closed form from P.
    """
    x = np.sort(image)
    count = len(x)
    prefix = np.concatenate([[0.0], np.cumsum(x)])

    def below(bound, side="left"):
        """Count of x below `bound` and their sum."""
        k = np.searchsorted(x, bound, side=side)
        return k, prefix[k]

    k, low = below(text)
    mean = (text * k - low + (prefix[-1] - low) - text * (count - k)) / count
    a, left = below(text - mean)
    b, right = below(text + mean, side="right")
    outside = (a * (text - mean) - left) + ((prefix[-1] - right) - (count - b) * (text + mean))
    # inside, below s: m - (s - x); inside, from s on: m - (x - s)
    inside = ((k - a) * (mean - text) + (low - left)) + ((b - k) * (mean + text) - (right - low))
    return float((outside + inside).sum() / (len(text) * count))


def oracle_check(seq):
    matrix = distance_matrix(seq)
    assert matrix.convention == "scalar"
    expected = scalar_ptd_oracle(seq.indices(TEXT)[:, 0], seq.indices(IMAGE)[:, 0])
    assert abs(ptd(matrix) - expected) <= TOLERANCE * np.abs(seq.index).max()


@pytest.mark.parametrize("scheme", ["hard", "unordered"])
@pytest.mark.parametrize("layout", ["i128x64,t2048,i128x64,t2048",
                                    "t1024,i64x64,t1024,i128x64,t1024,i64x64,t1024"])
def test_scalar_oracle_at_the_pair_limit(scheme, layout):
    seq = assign(scheme, parse_layout(layout))
    assert len(seq.indices(TEXT)) * len(seq.indices(IMAGE)) == cli.MAX_CELLS
    oracle_check(seq)


@settings(max_examples=200, deadline=None)
@given(layout=layouts, scheme=st.sampled_from(["hard", "unordered"]))
def test_scalar_oracle_on_random_layouts(layout, scheme):
    oracle_check(assign(scheme, layout))
