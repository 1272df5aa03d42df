"""Per-token distance (PTD): measures how coupled text and image indices are.

For each text token, take its index-space distances to all image tokens,
then the mean absolute deviation of that row from its own mean; PTD is the
average over all text tokens and image tokens. Zero means every text token
sits at the same distance from every image token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schemes import IMAGE, TEXT, IndexedSequence


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class DistanceMatrix:
    """Text-to-image distance table. Rows are text tokens, columns image tokens.

    `convention` records which axes entered the distance: "scalar" (both
    modalities replicated, 1D gap), "planar" (temporal axis dropped), or "3d".
    """

    values: np.ndarray
    convention: str


def _all_replicated(indices: np.ndarray) -> bool:
    return bool(np.all(indices == indices[:, :1]))


# Cells per block: 2**15 float64s are 256 KiB, small enough to stay in cache.
_BLOCK = 1 << 15


@np.errstate(over="ignore", invalid="ignore")
def distance_matrix(seq: IndexedSequence) -> DistanceMatrix:
    """Euclidean distances between every text index and every image index.

    The distance convention adapts to how much of the 3-axis index actually
    encodes position. When every index is an exact scalar replication
    (s, s, s), distances collapse to the 1D gap |s_t - s_i| instead of the 3D
    distance (which would be sqrt(3) larger). When text indices are replicated
    but image tokens carry grid coordinates with a constant temporal
    component, the temporal axis duplicates the sequence counter and is
    dropped, leaving the 2D height/width distance. Otherwise the full 3D
    distance is used.

    Distances that overflow float64 come out as inf; `ptd` rejects them.
    """
    text = seq.indices(TEXT)
    image = seq.indices(IMAGE)
    if len(text) == 0 or len(image) == 0:
        raise MetricError("PTD requires both modalities")
    if _all_replicated(text) and _all_replicated(image):
        values = text[:, :1] - image[:, 0][None, :]
        np.abs(values, out=values)
        convention = "scalar"
    elif _all_replicated(text) and np.all(image[:, 0] == image[0, 0]):
        values = _euclidean(text, image, (1, 2))
        convention = "planar"
    else:
        values = _euclidean(text, image, (0, 1, 2))
        convention = "3d"
    return DistanceMatrix(values=values, convention=convention)


def _euclidean(text: np.ndarray, image: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """(T, I) Euclidean distances over `axes`, one block of rows at a time.

    Squares are summed axis by axis, then square-rooted: the same arithmetic,
    per element, as a norm over a (T, I, len(axes)) array.
    """
    values = np.zeros((len(text), len(image)))
    rows = max(1, _BLOCK // len(image))
    diff = np.empty((min(rows, len(text)), len(image)))
    for start in range(0, len(text), rows):
        block = values[start:start + rows]
        d = diff[:len(block)]
        for axis in axes:
            np.subtract(text[start:start + rows, axis, None], image[None, :, axis], out=d)
            block += np.multiply(d, d, out=d)
        np.sqrt(block, out=block)
    return values


@np.errstate(over="ignore", invalid="ignore")
def ptd(matrix: DistanceMatrix) -> float:
    """Mean absolute deviation of each row from its row mean, averaged over all entries.

    Equal, bit for bit, to `np.abs(v - v.mean(axis=1, keepdims=True)).mean()`
    for a C-contiguous float64 table, without any (T, I) temporary.
    """
    values = matrix.values
    if values.size == 0:
        raise MetricError(f"PTD of an empty {values.shape} distance table is undefined")
    means = values.mean(axis=1)
    buf = np.empty(min(values.size, _BLOCK))
    total = _abs_deviation_sum(values.reshape(-1), means, values.shape[1], buf, 0, values.size)
    result = float(total / values.size)
    if not math.isfinite(result):
        raise MetricError("PTD is not finite: index distances overflow float64")
    return result


def _abs_deviation_sum(flat: np.ndarray, means: np.ndarray, width: int, buf: np.ndarray,
                       start: int, stop: int) -> np.float64:
    """Sum of |flat[k] - means[k // width]| over start <= k < stop.

    Segments longer than _BLOCK split where numpy's pairwise summation splits
    them, so the total is the one np.add.reduce gives over the whole array.
    Each leaf goes through the block buffer `buf`. A module-level function,
    not a closure, so that no reference cycle keeps the table alive.
    """
    n = stop - start
    if n > _BLOCK:
        half = n // 2 - (n // 2) % 8
        return (_abs_deviation_sum(flat, means, width, buf, start, start + half)
                + _abs_deviation_sum(flat, means, width, buf, start + half, stop))
    out = buf[:n]
    first, last = -(-start // width), stop // width  # whole rows first..last-1
    if first > last:  # the segment lies inside one row
        np.subtract(flat[start:stop], means[last], out=out)
    else:
        head, body = first * width - start, (last - first) * width
        if head:
            np.subtract(flat[start:first * width], means[first - 1], out=out[:head])
        np.subtract(flat[first * width:last * width].reshape(-1, width), means[first:last, None],
                    out=out[head:head + body].reshape(-1, width))
        if head + body < n:
            np.subtract(flat[last * width:stop], means[last], out=out[head + body:])
    np.abs(out, out=out)
    return np.add.reduce(out)


def ptd_of(seq: IndexedSequence) -> float:
    return ptd(distance_matrix(seq))
