"""Per-token index assignment for mixed text/image sequences.

Four schemes are supported: hard (flat 1D concatenation), unordered (one
shared index per image), spatial (multi-axis grid indices with offset
continuation), and circle (spatial text indices with image grids remapped
onto the projected circle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .geometry import CipConfig, GridSpec, cip_transform, grid_coords


class LayoutError(ValueError):
    """Malformed sequence layout."""


@dataclass(frozen=True)
class TextSegment:
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise LayoutError(f"text run length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class ImageSegment:
    grid: GridSpec


Segment = Union[TextSegment, ImageSegment]

TEXT = "text"
IMAGE = "image"


@dataclass(frozen=True)
class IndexedSequence:
    """Columnar token indices: row k of `index` (N, 3) is token k's index and
    `modality[k]` (N,) its modality, TEXT or IMAGE, in sequence order."""

    index: np.ndarray
    modality: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def indices(self, modality: str | None = None) -> np.ndarray:
        """(N, 3) index array, optionally filtered by modality."""
        if modality is None:
            return self.index
        return self.index[self.modality == modality]


def parse_layout(text: str) -> list[Segment]:
    """Parse the compact layout grammar: `t<N>` text runs, `i<W>x<H>` images.

    Segments are comma-separated, e.g. "i3x3,t5".
    """
    segments: list[Segment] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise LayoutError(f"empty segment in layout {text!r}")
        try:
            if part.startswith("t"):
                segments.append(TextSegment(int(part[1:])))
            elif part.startswith("i"):
                w, h = part[1:].split("x")
                segments.append(ImageSegment(GridSpec(width=int(w), height=int(h))))
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise LayoutError(f"bad layout segment {part!r} (expected t<N> or i<W>x<H>)") from None
    if not segments:
        raise LayoutError("layout must contain at least one segment")
    return segments


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
            kind, (block, counter) = IMAGE, image_block(seg.grid, counter)
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


SCHEME_NAMES = ("hard", "unordered", "spatial", "circle")


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
    raise LayoutError(f"unknown scheme {scheme!r}")
