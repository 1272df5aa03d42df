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
    """
    text = seq.indices(TEXT)
    image = seq.indices(IMAGE)
    if len(text) == 0 or len(image) == 0:
        raise MetricError("PTD requires both modalities")
    if _all_replicated(text) and _all_replicated(image):
        values = np.abs(text[:, :1] - image[:, 0][None, :])
        convention = "scalar"
    elif _all_replicated(text) and np.all(image[:, 0] == image[0, 0]):
        values = _euclidean(text, image, (1, 2))
        convention = "planar"
    else:
        values = _euclidean(text, image, (0, 1, 2))
        convention = "3d"
    return DistanceMatrix(values=values, convention=convention)


def _euclidean(text: np.ndarray, image: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """(T, I) Euclidean distances over `axes`, summing squares axis by axis
    in one buffer: the same order as a norm over a (T, I, len(axes)) array."""
    values = np.zeros((len(text), len(image)))
    diff = np.empty_like(values)
    for axis in axes:
        np.subtract(text[:, axis, None], image[None, :, axis], out=diff)
        values += np.multiply(diff, diff, out=diff)
    return np.sqrt(values, out=values)


def ptd(matrix: DistanceMatrix) -> float:
    """Mean absolute deviation of each row from its row mean, averaged over all entries."""
    values = matrix.values
    row_means = values.mean(axis=1, keepdims=True)
    result = float(np.abs(values - row_means).mean())
    if not math.isfinite(result):
        raise MetricError("PTD is not finite: index distances overflow float64")
    return result


def ptd_of(seq: IndexedSequence) -> float:
    return ptd(distance_matrix(seq))
