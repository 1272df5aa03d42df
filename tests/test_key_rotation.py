"""Property tests of the shared-key rotation and of RoPE's relative-position
property.

`rotate_key` must equal the broadcast `apply_rotary` byte for byte: the golden
attn digests pin the logits, and the logits are summed from these bytes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circle_rope.geometry import GridSpec
from circle_rope.rope import RotaryParams, apply_rotary, logit, rotate_key, \
    rotation_angles
from circle_rope.schemes import IMAGE, TEXT, TextSegment, assign
from circle_rope.spec import SCHEME_NAMES
from test_segment_walk import configs


def reference(key, index, params):
    return apply_rotary(np.broadcast_to(key, (len(index), len(key))),
                        rotation_angles(index, params))


def assert_same_bytes(key, index, params):
    got = rotate_key(key, index, params)
    assert got.flags.c_contiguous
    assert got.shape == (len(index), params.head_dim)
    assert got.tobytes() == reference(key, index, params).tobytes()


@st.composite
def rotary_params(draw):
    """Any head_dim up to 64 and any split into three sections, empty ones too."""
    pairs = draw(st.integers(1, 32))
    a, b = sorted(draw(st.lists(st.integers(0, pairs), min_size=2, max_size=2)))
    return RotaryParams(2 * pairs, sections=(a, b - a, pairs - b))


signed_zeros = st.sampled_from([0.0, -0.0])
values = st.one_of(signed_zeros, st.integers(-60, 60).map(float),
                   st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False))


@st.composite
def indices(draw):
    """(N, 3) indices drawn from a few values, so that values repeat; either
    replicated (s, s, s) rows or three independent columns."""
    pool = draw(st.lists(values, min_size=1, max_size=6))
    n = draw(st.integers(0, 40))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=3 * n, max_size=3 * n))
    index = np.array([pool[p] for p in picks], dtype=float).reshape(n, 3)
    if draw(st.booleans()):
        index = np.repeat(index[:, :1], 3, axis=1)
    return index


@st.composite
def keys(draw, head_dim):
    entries = st.one_of(signed_zeros, st.floats(-10, 10, allow_nan=False))
    return np.array(draw(st.lists(entries, min_size=head_dim, max_size=head_dim)))


@settings(max_examples=150)
@given(data=st.data(), params=rotary_params(), index=indices())
def test_equals_broadcast_apply_rotary(data, params, index):
    assert_same_bytes(data.draw(keys(params.head_dim)), index, params)


text_run = st.integers(1, 8).map(TextSegment)
image = st.builds(GridSpec, st.integers(1, 9), st.integers(1, 9))
layouts = st.tuples(image, st.lists(st.one_of(text_run, image), max_size=4)).flatmap(
    lambda t: st.permutations([t[0], *t[1]]))


@settings(max_examples=80)
@given(segments=layouts, config=configs, scheme=st.sampled_from(SCHEME_NAMES),
       params=rotary_params(), seed=st.integers(0, 2**32 - 1))
def test_equals_broadcast_apply_rotary_on_scheme_indices(segments, config, scheme, params, seed):
    seq = assign(scheme, segments, config)
    key = np.random.default_rng(seed).standard_normal(params.head_dim)
    for modality in (IMAGE, TEXT):
        assert_same_bytes(key, seq.indices(modality), params)


@pytest.mark.parametrize("sections", [(0, 4, 4), (4, 0, 4), (4, 4, 0), (8, 0, 0), (0, 0, 8),
                                      (3, 4, 1)])
@pytest.mark.parametrize("replicated", [True, False])
def test_signed_zeros_stay_apart(sections, replicated):
    # sin(-0.0) is -0.0, and with a -0.0 odd key entry the rotated odd entry
    # keeps that sign: an implementation that merged -0.0 into 0.0 would
    # give 0.0 for both rows
    params = RotaryParams(16, sections=sections)
    key = np.tile([1.0, -0.0], 8)
    index = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]])
    if replicated:
        index = np.repeat(index[:, :1], 3, axis=1)
    assert_same_bytes(key, index, params)
    expected = reference(key, index, params)
    assert expected[0].tobytes() != expected[1].tobytes()


@pytest.mark.parametrize("sections", [(0, 4, 4), (2, 3, 3)])
def test_empty_index(sections):
    params = RotaryParams(16, sections=sections)
    out = rotate_key(np.ones(16), np.zeros((0, 3)), params)
    assert out.shape == (0, 16)
    assert out.flags.c_contiguous


# Tolerance of the relative-position property: angles reach 400 rad, where the
# rounding of the shifted index, of index * frequency and of cos/sin each err
# by about 1e-13 rad; summed over the pairs that bounds the logit error by about
# 1e-13 * |q| * |k| (Cauchy-Schwarz), so 1e-10 * |q| * |k| leaves wide room.
RELATIVE_TOL = 1e-10
coords = st.floats(-100, 100, allow_nan=False)
points = st.lists(coords, min_size=3, max_size=3).map(np.array)


@settings(max_examples=200)
@given(params=rotary_params(), seed=st.integers(0, 2**32 - 1), q_index=points, k_index=points,
       shift=points)
def test_logit_depends_on_relative_position_only(params, seed, q_index, k_index, shift):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(params.head_dim)
    k = rng.standard_normal(params.head_dim)
    before = logit(q, q_index, k, k_index, params)
    after = logit(q, q_index + shift, k, k_index + shift, params)
    assert abs(after - before) <= RELATIVE_TOL * np.linalg.norm(q) * np.linalg.norm(k)
