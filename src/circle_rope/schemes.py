"""Per-token index assignment for mixed text/image sequences.

Four schemes are supported: hard (flat 1D concatenation), unordered (one
shared index per image), spatial (multi-axis grid indices with offset
continuation), and circle (spatial text indices with image grids remapped
onto the projected circle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import cip_transform, grid_coords
# re-exported, so that schemes.parse_layout and the like keep resolving
from .spec import SCHEME_NAMES, CipConfig, CircleRopeError, GridSpec, Segment, TextSegment, \
    parse_layout


TEXT = "text"
IMAGE = "image"


@dataclass(frozen=True)
class IndexedSequence:
    """Columnar token indices: row k of `index` (N, 3) is token k's index and
    `modality[k]` (N,) its modality, TEXT or IMAGE, in sequence order."""

    index: np.ndarray
    modality: np.ndarray

    def indices(self, modality: str) -> np.ndarray:
        """The rows of `index` whose token has `modality`, in sequence order."""
        return self.index[self.modality == modality]


def _line(start: int, n: int) -> np.ndarray:
    """Scalar indices (s, s, s) for s = start, ..., start + n - 1."""
    return np.repeat(np.arange(start, start + n, dtype=float)[:, None], 3, axis=1)


def _walk(segments: list[Segment],
          image_block: Callable[[GridSpec, int], tuple[np.ndarray, int]]) -> IndexedSequence:
    """Index a layout on one shared counter. Each text token takes the
    counter's scalar index and advances it by one; `image_block(grid, counter)`
    returns an image's (n, 3) indices in grid_coords order and the counter
    value after the image."""
    blocks, kinds = [], []
    counter = 0
    for seg in segments:
        if isinstance(seg, TextSegment):
            kind, block = TEXT, _line(counter, seg.length)
            counter += seg.length
        else:
            kind, (block, counter) = IMAGE, image_block(seg, counter)
        blocks.append(block)
        kinds.append(kind)
    index = np.concatenate(blocks) if blocks else np.zeros((0, 3))
    modality = np.repeat(np.array(kinds, dtype=str), [len(block) for block in blocks])
    index.flags.writeable = modality.flags.writeable = False
    return IndexedSequence(index, modality)


def assign_hard(segments: list[Segment]) -> IndexedSequence:
    """Consecutive scalar index per token, images flattened row-major."""
    def block(grid: GridSpec, base: int) -> tuple[np.ndarray, int]:
        return _line(base, grid.num_tokens), base + grid.num_tokens
    return _walk(segments, block)


def assign_unordered(segments: list[Segment]) -> IndexedSequence:
    """Scalar counter advancing by one per text token and one per whole image."""
    def block(grid: GridSpec, base: int) -> tuple[np.ndarray, int]:
        return np.full((grid.num_tokens, 3), float(base)), base + 1
    return _walk(segments, block)


def assign_spatial(segments: list[Segment]) -> IndexedSequence:
    """Multi-axis indices: text (t,t,t); image token (row j, col i) gets
    (b, b+j, b+i) where b is the counter at the image start. The counter
    resumes one past the maximum component used, b + max(w, h)."""
    def block(grid: GridSpec, base: int) -> tuple[np.ndarray, int]:
        return grid_coords(grid) + base, base + max(grid.width, grid.height)
    return _walk(segments, block)


def assign_circle(segments: list[Segment], config: CipConfig) -> IndexedSequence:
    """Spatial text indices; image grids replaced by fused circle coordinates
    translated so the circle center sits at (b, b, b) on the text line."""
    def block(grid: GridSpec, base: int) -> tuple[np.ndarray, int]:
        fused = cip_transform(grid, config).fused + float(base)
        return fused, base + max(grid.width, grid.height)
    return _walk(segments, block)


def assign(scheme: str, segments: list[Segment], config: CipConfig = CipConfig()) -> IndexedSequence:
    """Dispatch on scheme name; only the circle scheme reads `config`."""
    if scheme == "hard":
        return assign_hard(segments)
    if scheme == "unordered":
        return assign_unordered(segments)
    if scheme == "spatial":
        return assign_spatial(segments)
    if scheme == "circle":
        return assign_circle(segments, config)
    raise CircleRopeError(f"unknown scheme {scheme!r}")
