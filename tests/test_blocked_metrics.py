"""The block-wise PTD kernels: bit-identical to the unblocked one-liners,
bounded in memory, and holding no reference to the table after a call."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circle_rope.geometry import CipConfig
from circle_rope.metrics import _BLOCK, DistanceMatrix, MetricError, distance_matrix, ptd
from circle_rope.schemes import IMAGE, TEXT, IndexedSequence, assign, parse_layout

MIB = 1 << 20

# Table sizes on both sides of one and two blocks; none is a multiple of 8
# once the offset is applied, and with one text row a row is longer than a block.
TARGETS = [k * _BLOCK + d for k in (1, 2) for d in (-5, -1, 0, 1, 7)]
near_blocks = st.builds(lambda cells, t, d: (t, max(1, cells // t + d)),
                        st.sampled_from(TARGETS), st.integers(1, 40), st.integers(-3, 3))
one_column = st.builds(lambda cells, d: (cells + d, 1), st.sampled_from(TARGETS),
                       st.integers(-3, 3))
small = st.tuples(st.integers(1, 50), st.integers(1, 50))
shapes = st.one_of(near_blocks, one_column, small)
seeds = st.integers(0, 2**32 - 1)


def reference_ptd(values):
    return float(np.abs(values - values.mean(axis=1, keepdims=True)).mean())


def reference_distances(text, image, convention):
    if convention == "scalar":
        return np.abs(text[:, :1] - image[:, 0][None, :])
    axes = [1, 2] if convention == "planar" else [0, 1, 2]
    return np.linalg.norm(text[:, None, axes] - image[None, :, axes], axis=2)


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=seeds, scale=st.floats(1e-3, 1e6))
def test_ptd_equals_unblocked_reference(shape, seed, scale):
    values = np.random.default_rng(seed).uniform(0, scale, size=shape)
    assert ptd(DistanceMatrix(values, "3d")) == reference_ptd(values)


@settings(max_examples=40, deadline=None)
@given(convention=st.sampled_from(["scalar", "planar", "3d"]), shape=shapes, seed=seeds,
       scale=st.floats(1e-3, 1e6))
def test_distance_matrix_equals_norm(convention, shape, seed, scale):
    n_text, n_image = shape
    rng = np.random.default_rng(seed)
    text = np.repeat(rng.standard_normal((n_text, 1)) * scale, 3, axis=1)
    if convention == "scalar":
        img = np.repeat(rng.standard_normal((n_image, 1)) * scale, 3, axis=1)
    else:
        img = rng.standard_normal((n_image, 3)) * scale
        if convention == "planar":
            img[:, 0] = img[0, 0]
        else:
            text[:, 2] += 0.5
    seq = IndexedSequence(index=np.concatenate([text, img]),
                          modality=np.array([TEXT] * n_text + [IMAGE] * n_image))
    matrix = distance_matrix(seq)
    assert matrix.convention == convention
    assert matrix.values.tobytes() == reference_distances(text, img, convention).tobytes()


@pytest.mark.parametrize("shape", [(0, 5), (3, 0)])
def test_empty_table_is_a_metric_error(shape):
    with pytest.raises(MetricError):
        ptd(DistanceMatrix(np.zeros(shape), "3d"))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_is_one_table_plus_blocks():
    # 512 text rows x 4096 image columns, circle scheme: the 3d convention
    seq = assign("circle", parse_layout("i64x64,t512"), CipConfig())
    matrix, peak = _traced_peak(distance_matrix, seq)
    assert matrix.values.shape == (512, 4096)
    assert peak <= matrix.values.nbytes + MIB
    _, peak = _traced_peak(ptd, matrix)
    assert peak < MIB


def test_ptd_keeps_no_reference_to_the_table():
    matrix = distance_matrix(assign("spatial", parse_layout("i64x64,t32"), CipConfig()))
    gc.disable()
    try:
        ptd(matrix)
        ref = weakref.ref(matrix.values)
        del matrix
        assert ref() is None
    finally:
        gc.enable()
