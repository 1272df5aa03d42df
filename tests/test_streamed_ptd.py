"""The PTD kernel: a `DistanceMatrix` built from index rows keeps no (T, I)
table. Its table and its PTD equal by `==` a dense one-liner over the whole
table, in every convention and on both the float and the integer-product
paths; each long row is filled at most twice; the working set is the index
columns or factors plus one block; and neither `ptd` nor a read of `values`
keeps a reference to what it used."""

import gc
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circle_rope import metrics
from circle_rope.geometry import CipConfig
from circle_rope.metrics import _BLOCK, distance_matrix, ptd
from circle_rope.schemes import IMAGE, TEXT, IndexedSequence, assign, parse_layout
from circle_rope.spec import SCHEME_NAMES

MIB = 1 << 20

# Table sizes on both sides of one and two blocks, rows longer than a block,
# and one image column under up to two blocks of text rows.
TARGETS = [k * _BLOCK + d for k in (1, 2) for d in (-5, -1, 0, 1, 7)]
near_blocks = st.builds(lambda cells, t, d: (t, max(1, cells // t + d)),
                        st.sampled_from(TARGETS), st.integers(1, 40), st.integers(-3, 3))
long_rows = st.tuples(st.integers(1, 3), st.integers(_BLOCK - 3, 2 * _BLOCK + 9))
one_column = st.builds(lambda cells, d: (cells + d, 1), st.sampled_from(TARGETS),
                       st.integers(-3, 3))
small = st.tuples(st.integers(1, 50), st.integers(1, 60))
shapes = st.one_of(near_blocks, long_rows, one_column, small)
seeds = st.integers(0, 2**32 - 1)
# Index magnitudes on both sides of the product's 2**24 bound, up to 2**34.
offsets = st.one_of(st.just(0), st.builds(lambda sign, bits: sign * 2**bits,
                                          st.sampled_from([1, -1]), st.integers(20, 34)))


def reference_ptd(values):
    return float(np.abs(values - values.mean(axis=1, keepdims=True)).mean())


def dense_distances(seq, convention):
    text, image = seq.indices(TEXT), seq.indices(IMAGE)
    if convention == "scalar":
        return np.abs(text[:, :1] - image[:, 0][None, :])
    axes = [1, 2] if convention == "planar" else [0, 1, 2]
    return np.linalg.norm(text[:, None, axes] - image[None, :, axes], axis=2)


def sequence(convention, shape, seed, scale):
    """A hand-built sequence of the given convention; under "3d" the text
    indices are not replicated."""
    n_text, n_image = shape
    rng = np.random.default_rng(seed)
    text = np.repeat(rng.standard_normal((n_text, 1)) * scale, 3, axis=1)
    if convention == "scalar":
        image = np.repeat(rng.standard_normal((n_image, 1)) * scale, 3, axis=1)
    else:
        image = rng.standard_normal((n_image, 3)) * scale
        if convention == "planar":
            image[:, 0] = image[0, 0]
        else:
            text += rng.standard_normal((n_text, 3)) * scale
    return IndexedSequence(index=np.concatenate([text, image]),
                           modality=np.array([TEXT] * n_text + [IMAGE] * n_image))


@settings(max_examples=60)
@given(convention=st.sampled_from(["scalar", "planar", "3d"]), shape=shapes, seed=seeds,
       scale=st.floats(1e-3, 1e6))
def test_index_built_ptd_equals_unblocked_reference(convention, shape, seed, scale):
    seq = sequence(convention, shape, seed, scale)
    matrix = distance_matrix(seq)
    assert matrix.convention == convention
    assert matrix.shape == shape
    dense = dense_distances(seq, convention)
    assert matrix.values.tobytes() == dense.tobytes()
    assert ptd(matrix) == reference_ptd(dense)


def integer_sequence(convention, replicated, shape, seed, offset, spread, half):
    """Integer-valued indices within `spread` of `offset`, each zero stored as
    0.0 or -0.0 at random, except that with `half` one image height or width
    gains 0.5. Planar text is replicated, 3d text is replicated or not as
    `replicated` says, and 3d image tokens differ in their temporal
    component."""
    n_text, n_image = shape
    rng = np.random.default_rng(seed)
    text, image = (offset + rng.integers(-spread, spread + 1, (n, 3)).astype(float)
                   for n in shape)
    image[0, 1] = image[0, 2] + 1  # not a replication, so never scalar
    if convention == "planar" or replicated:
        text[:] = text[:, :1]
    else:
        text[0, 1] = text[0, 0] + 1
    if convention == "planar":
        image[:, 0] = image[0, 0]
    else:
        image[1, 0] = image[0, 0] + 1
    index = np.concatenate([text, image])
    index[(index == 0) & (rng.random(index.shape) < 0.5)] = -0.0
    if half:
        index[rng.integers(n_text, n_text + n_image), rng.integers(1, 3)] += 0.5
    return IndexedSequence(index=index,
                           modality=np.array([TEXT] * n_text + [IMAGE] * n_image))


@settings(max_examples=60)
@given(convention=st.sampled_from(["planar", "3d"]), replicated=st.booleans(),
       shape=st.one_of(near_blocks, long_rows, st.tuples(st.integers(1, 50), st.integers(2, 60))),
       seed=seeds, offset=offsets, spread=st.integers(0, 100), half=st.booleans())
def test_integer_indices_take_the_product_exactly_up_to_2_24(convention, replicated, shape,
                                                               seed, offset, spread, half):
    seq = integer_sequence(convention, replicated, shape, seed, offset, spread, half)
    matrix = distance_matrix(seq)
    assert matrix.convention == convention
    axes = [1, 2] if convention == "planar" else [0, 1, 2]
    small = np.abs(seq.index[:, axes]).max() <= 2**24
    assert (matrix._factors is not None) == (small and not half)
    dense = dense_distances(seq, convention)
    assert matrix.values.tobytes() == dense.tobytes()
    assert ptd(matrix) == reference_ptd(dense)


@pytest.mark.parametrize("layout", ["t2,i256x256", "i200x200,t1,i90x3", "t5,i181x181"])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_long_rows_of_real_layouts(layout, scheme):
    seq = assign(scheme, parse_layout(layout), CipConfig())
    matrix = distance_matrix(seq)
    # spatial's integer indices take the product; circle's (beta 0.1) do not
    assert (matrix._factors is not None) == (scheme == "spatial")
    dense = dense_distances(seq, matrix.convention)
    expected = reference_ptd(dense)
    assert ptd(matrix) == expected
    # reading the table keeps nothing that changes the result
    assert matrix.values.tobytes() == dense.tobytes()
    assert ptd(matrix) == expected


@pytest.mark.parametrize("layout", ["t3,i300x300", "t4,i64x64", "t1,i200x200"])
@pytest.mark.parametrize("scheme", ["circle", "spatial"])
def test_each_row_is_filled_at_most_twice(scheme, layout, monkeypatch):
    filled = Counter()
    fill_rows = metrics._fill_rows

    def counting(matrix, first, last, out, diff):
        filled.update(range(first, last))
        fill_rows(matrix, first, last, out, diff)

    monkeypatch.setattr(metrics, "_fill_rows", counting)
    matrix = distance_matrix(assign(scheme, parse_layout(layout), CipConfig()))
    ptd(matrix)
    assert set(filled) == set(range(matrix.shape[0]))
    assert max(filled.values()) <= 2


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme", ["circle", "spatial"])
def test_working_set_is_one_table_plus_blocks(scheme):
    # 512 text rows x 4096 image columns: circle's float 3d columns, or
    # spatial's integer planar factors
    seq = assign(scheme, parse_layout("i64x64,t512"), CipConfig())
    matrix, peak = _traced_peak(distance_matrix, seq)
    assert matrix.shape == (512, 4096)
    # the matrix keeps index columns or factors, nothing of size T x I
    assert peak <= seq.index.nbytes + MIB
    _, peak = _traced_peak(ptd, matrix)
    assert peak < MIB


def test_ptd_keeps_no_reference_to_the_matrix():
    matrix = distance_matrix(assign("spatial", parse_layout("i64x64,t32"), CipConfig()))
    gc.disable()
    try:
        ptd(matrix)
        ref = weakref.ref(matrix)
        del matrix
        assert ref() is None
    finally:
        gc.enable()


def test_values_are_built_on_each_read_and_not_kept():
    matrix = distance_matrix(assign("spatial", parse_layout("i8x8,t4"), CipConfig()))
    gc.disable()
    try:
        ref = weakref.ref(matrix.values)
        assert ref() is None
    finally:
        gc.enable()
