"""The inputs of circle_rope and its error class, on the standard library
alone, so that the CLI checks every input before it loads numpy. The
compute modules re-export the names of it they use."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum


class CircleRopeError(ValueError):
    """The error circle_rope raises for invalid input."""


def integer(text: str) -> int:
    """The one grammar of every count and seed: ASCII digits after an optional
    `-`. int() alone also takes `+`, `_`, spaces and non-ASCII digits."""
    if re.fullmatch("-?[0-9]+", text) is None:
        raise CircleRopeError(f"expected an integer, got {text!r}")
    return int(text)


@dataclass(frozen=True)
class GridSpec:
    """Grid of image tokens: `width` columns by `height` rows."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise CircleRopeError(f"grid must be at least 1x1, got {self.width}x{self.height}")

    @property
    def num_tokens(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class FixedRadius:
    """Use a predefined constant circle radius."""

    value: float

    def __post_init__(self) -> None:
        if not (self.value > 0 and math.isfinite(self.value)):
            raise CircleRopeError(f"fixed radius must be positive and finite, got {self.value}")


@dataclass(frozen=True)
class AutoRadius:
    """Scale the radius from the spread of the centered points: k * max L2 norm."""

    k: float

    def __post_init__(self) -> None:
        if not (self.k > 0 and math.isfinite(self.k)):
            raise CircleRopeError(f"auto radius factor must be positive and finite, got {self.k}")


@dataclass(frozen=True)
class CipConfig:
    """Parameters of the circular projection.

    alpha: weight on the spatial-origin angle (1 - alpha on the grid-index angle).
    radius: FixedRadius or AutoRadius.
    beta: dual-frame fusion weight on the projected coordinates.
    """

    alpha: float = 0.5
    radius: FixedRadius | AutoRadius = FixedRadius(10.0)
    beta: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise CircleRopeError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise CircleRopeError(f"beta must be in [0, 1], got {self.beta}")


# The stages of the circular projection of one grid, in pipeline order: the
# fields of geometry.CipStages and the CLI's --stage choices.
#   centered: the grid shifted to its midrange center.
#   circle2d: the mixed angles on the circle, in the working XY plane.
#   projected: circle2d rotated into the plane orthogonal to the text line.
#   fused: dual-frame fusion, beta * projected + (1 - beta) * centered.
STAGE_NAMES = ("centered", "circle2d", "projected", "fused")


@dataclass(frozen=True)
class TextSegment:
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise CircleRopeError(f"text run length must be >= 1, got {self.length}")


# A layout is a list of text runs and image grids.
Segment = TextSegment | GridSpec

SCHEME_NAMES = ("hard", "unordered", "spatial", "circle")


def parse_layout(text: str) -> list[Segment]:
    """Parse the compact layout grammar: comma-separated `t<N>` text runs and
    `i<W>x<H>` images, e.g. "i3x3,t5", with whitespace allowed around each
    segment only. N, W and H are `integer`s, each at least 1."""
    segments: list[Segment] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise CircleRopeError(f"empty segment in layout {text!r}")
        try:
            sizes = [integer(size) for size in part[1:].split("x")]
        except ValueError:
            sizes = []
        if (part[0], len(sizes)) not in (("t", 1), ("i", 2)):
            raise CircleRopeError(f"bad layout segment {part!r} (expected t<N> or i<W>x<H>)")
        # built after the syntax check, so that a size rule (t0, i0x3) names itself
        segments.append(TextSegment(*sizes) if part[0] == "t" else GridSpec(*sizes))
    return segments


def token_counts(segments: list[Segment]) -> tuple[int, int]:
    """(text tokens, image tokens) of a layout."""
    text = sum(seg.length for seg in segments if isinstance(seg, TextSegment))
    image = sum(seg.num_tokens for seg in segments if isinstance(seg, GridSpec))
    return text, image


class ScheduleStrategy(str, Enum):
    ALL_CIRCLE = "all"
    UPPER_HALF_CIRCLE = "upper"
    LOWER_HALF_CIRCLE = "lower"
    ALTERNATING = "alt"
