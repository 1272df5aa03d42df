"""The inputs of circle_rope and its error classes, on the standard library
alone, so that the CLI checks every input before it loads numpy. The
compute modules re-export the names they used to define."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union


class CircleRopeError(ValueError):
    """Base of the errors circle_rope raises for invalid input."""


class GeometryError(CircleRopeError):
    """Invalid input to a geometry transform."""


class LayoutError(CircleRopeError):
    """Malformed sequence layout."""


class MetricError(CircleRopeError):
    pass


class RopeError(CircleRopeError):
    pass


class HarnessError(CircleRopeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Grid of image tokens: `width` columns by `height` rows."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise GeometryError(f"grid must be at least 1x1, got {self.width}x{self.height}")

    @property
    def num_tokens(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class FixedRadius:
    """Use a predefined constant circle radius."""

    value: float

    def __post_init__(self) -> None:
        if not (self.value > 0 and math.isfinite(self.value)):
            raise GeometryError(f"fixed radius must be positive and finite, got {self.value}")


@dataclass(frozen=True)
class AutoRadius:
    """Scale the radius from the spread of the centered points: k * max L2 norm."""

    k: float

    def __post_init__(self) -> None:
        if not (self.k > 0 and math.isfinite(self.k)):
            raise GeometryError(f"auto radius factor must be positive and finite, got {self.k}")


RadiusStrategy = Union[FixedRadius, AutoRadius]


@dataclass(frozen=True)
class CipConfig:
    """Parameters of the circular projection.

    alpha: weight on the spatial-origin angle (1 - alpha on the grid-index angle).
    radius: FixedRadius or AutoRadius.
    beta: dual-frame fusion weight on the projected coordinates.
    """

    alpha: float = 0.5
    radius: RadiusStrategy = FixedRadius(10.0)
    beta: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise GeometryError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise GeometryError(f"beta must be in [0, 1], got {self.beta}")


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
            raise LayoutError(f"text run length must be >= 1, got {self.length}")


# A layout is a list of text runs and image grids.
Segment = Union[TextSegment, GridSpec]

SCHEME_NAMES = ("hard", "unordered", "spatial", "circle")


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
                segments.append(GridSpec(width=int(w), height=int(h)))
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise LayoutError(f"bad layout segment {part!r} (expected t<N> or i<W>x<H>)") from None
    if not segments:
        raise LayoutError("layout must contain at least one segment")
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
