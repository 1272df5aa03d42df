"""Per-token distance (PTD): measures how coupled text and image indices are.

For each text token, take its index-space distances to all image tokens,
then the mean absolute deviation of that row from its own mean; PTD is the
average over all text tokens and image tokens. Zero means every text token
sits at the same distance from every image token.
"""

from __future__ import annotations

import math

import numpy as np

from .schemes import IMAGE, TEXT, IndexedSequence
from .spec import CircleRopeError


# Cells per block: 2**15 float64s are 256 KiB, small enough to stay in cache.
_BLOCK = 1 << 15

# The index axes each convention measures distance over.
_AXES = {"scalar": (0,), "planar": (1, 2), "3d": (0, 1, 2)}


class DistanceMatrix:
    """Text-to-image distances. Rows are text tokens, columns image tokens.

    Built from the (T, 3) text and (I, 3) image indices. The convention
    adapts to how much of the 3-axis index encodes position, comparing
    indices by exact `==`: "scalar" when every index is a replication
    (s, s, s), the 1D gap |s_t - s_i| rather than a 3D distance sqrt(3)
    larger; "planar" when text indices are replicated and image tokens share
    one temporal component, which then only duplicates the sequence counter
    and is dropped; otherwise "3d".

    It holds only `shape` (T, I), the `convention` and one contiguous column
    per axis the convention measures. When a planar or 3d convention's A
    axes hold only integers of magnitude at most 2**24, it holds instead the
    factors `left` (T, A+2) = [sum t**2, -2t..., 1] and `right` (A+2, I) =
    [1; k...; sum k**2] of the squared table. Their entries, products and
    partial sums are then integers below 2**52, so a matmul gives that table
    exactly, in any summation order.

    `values` builds a new (T, I) table on each read and keeps none. Distances
    that overflow float64 come out as inf; `ptd` rejects them.
    """

    def __init__(self, text: np.ndarray, image: np.ndarray) -> None:
        if len(text) == 0 or len(image) == 0:
            raise CircleRopeError("PTD requires both modalities")
        text_replicated = _all_replicated(text)
        if text_replicated and _all_replicated(image):
            self.convention = "scalar"
        elif text_replicated and np.all(image[:, 0] == image[0, 0]):
            self.convention = "planar"
        else:
            self.convention = "3d"
        self.shape = (len(text), len(image))
        text, image = text[:, _AXES[self.convention]], image[:, _AXES[self.convention]]
        self._factors, self._columns = None, []
        if self.convention != "scalar" and _small_integers(text) and _small_integers(image):
            self._factors = (
                np.column_stack([(text * text).sum(axis=1), -2 * text, np.ones(len(text))]),
                np.vstack([np.ones(len(image)), image.T, (image * image).sum(axis=1)]))
        else:
            self._columns = [(np.ascontiguousarray(text[:, a]), np.ascontiguousarray(image[:, a]))
                             for a in range(text.shape[1])]

    @property
    @np.errstate(over="ignore", invalid="ignore")
    def values(self) -> np.ndarray:
        rows, width = self.shape
        values = np.empty(self.shape)
        step = max(1, _BLOCK // width)
        diff = np.empty((min(step, rows), width))
        for first in range(0, rows, step):
            _fill_rows(self, first, min(first + step, rows), values[first:first + step], diff)
        return values


def _fill_rows(matrix: DistanceMatrix, first: int, last: int, out: np.ndarray,
               diff: np.ndarray) -> None:
    """Write rows first..last-1 of the distance table into `out` (last - first, I).

    Squares are summed axis by axis, then square-rooted: the same arithmetic,
    per element, as a norm over a (T, I, len(axes)) array (the first square
    goes straight into `out`, since 0 + x == x). The scalar convention takes
    the absolute gap. Integer factors take one product instead, equal to the
    sum of squares bit for bit. `diff` is scratch of at least `out`'s shape.
    """
    if matrix._factors is not None:
        left, right = matrix._factors
        np.sqrt(np.matmul(left[first:last], right, out=out), out=out)
        return
    (text, image), *rest = matrix._columns
    np.subtract(text[first:last, None], image[None, :], out=out)
    if matrix.convention == "scalar":
        np.abs(out, out=out)
        return
    np.multiply(out, out, out=out)
    d = diff[:len(out)]
    for text, image in rest:
        np.subtract(text[first:last, None], image[None, :], out=d)
        out += np.multiply(d, d, out=d)
    np.sqrt(out, out=out)


def _all_replicated(indices: np.ndarray) -> bool:
    return bool(np.all(indices == indices[:, :1]))


def _small_integers(values: np.ndarray) -> bool:
    """Whether every value is an integer of magnitude at most 2**24 (NaN and inf are not)."""
    return bool(np.all(np.abs(values) <= 1 << 24) and np.all(np.trunc(values) == values))


def distance_matrix(seq: IndexedSequence) -> DistanceMatrix:
    return DistanceMatrix(seq.indices(TEXT), seq.indices(IMAGE))


@np.errstate(over="ignore", invalid="ignore")
def ptd(matrix: DistanceMatrix) -> float:
    """Mean absolute deviation of each row from its row mean, averaged over all entries.

    Equal, bit for bit, to `np.abs(v - v.mean(axis=1, keepdims=True)).mean()`
    over the C-contiguous float64 table v, without making that table: the
    rows are filled a few at a time into buffers of O(I + _BLOCK) cells.
    """
    rows, width = matrix.shape
    size = rows * width
    span = min(rows, (_BLOCK - 1) // width + 2)  # the most rows one leaf can touch
    # One allocation for both: freed as two, they can reach the allocator's
    # trim threshold, and each call then page-faults its buffers back in.
    dev, diff = np.empty((2, span, width))
    total = _abs_deviation_sum(matrix, dev, diff, [0, 0], 0, size)
    result = float(total / size)
    if not math.isfinite(result):
        raise CircleRopeError("PTD is not finite: index distances overflow float64")
    return result


def _abs_deviation_sum(matrix: DistanceMatrix, dev: np.ndarray, diff: np.ndarray,
                       held: list[int], start: int, stop: int) -> np.float64:
    """Sum of |v[k] - mean of v's row| over flat table cells start <= k < stop.

    Segments longer than _BLOCK split where numpy's pairwise summation splits
    them, so the total is the one np.add.reduce gives over the whole table.
    A leaf fills the rows it touches into `dev` and replaces them with their
    absolute deviations from their own means; `held` = [first, last) names
    the rows `dev` holds, so a row longer than a block, touched by several
    leaves in turn, is filled at most twice. A module-level function, not a
    closure, so that no reference cycle keeps the matrix alive.
    """
    n = stop - start
    if n > _BLOCK:
        half = n // 2 - (n // 2) % 8
        return (_abs_deviation_sum(matrix, dev, diff, held, start, start + half)
                + _abs_deviation_sum(matrix, dev, diff, held, start + half, stop))
    width = matrix.shape[1]
    first, last = start // width, (stop - 1) // width + 1
    if not (held[0] <= first and last <= held[1]):
        block = dev[:last - first]
        _fill_rows(matrix, first, last, block, diff)
        block -= np.add.reduce(block, axis=1, keepdims=True) / width
        np.abs(block, out=block)
        held[:] = first, last
    offset = held[0] * width
    return np.add.reduce(dev.reshape(-1)[start - offset:stop - offset])


def ptd_of(seq: IndexedSequence) -> float:
    return ptd(distance_matrix(seq))
