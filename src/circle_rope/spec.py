"""The inputs of circle_rope with every rule they must keep, and its error
class. Loading it imports only the standard library, so the CLI checks every
input, down to the radius each image resolves to, before it loads numpy.
The compute modules re-export what they use."""

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

    def resolve(self, grid: GridSpec) -> float:
        """The circle radius of `grid`: the value, whatever the grid."""
        return self.value


@dataclass(frozen=True)
class AutoRadius:
    """Scale the radius from the grid: k * the distance from its centre to a corner."""

    k: float

    def __post_init__(self) -> None:
        if not (self.k > 0 and math.isfinite(self.k)):
            raise CircleRopeError(f"auto radius factor must be positive and finite, got {self.k}")

    def resolve(self, grid: GridSpec) -> float:
        """The circle radius of `grid`: a corner's centred norm, the largest,
        in the float64 operations of numpy's norm, so bit for bit numpy's."""
        height, width = (grid.height - 1) / 2, (grid.width - 1) / 2
        max_norm = math.sqrt(height * height + width * width)
        if max_norm == 0.0:
            raise CircleRopeError("degenerate radius")
        radius = self.k * max_norm
        if not math.isfinite(radius):
            raise CircleRopeError(f"auto radius {self.k} * {max_norm} is not finite")
        if radius == 0.0:  # a subnormal k times a small grid
            raise CircleRopeError(f"radius must be positive, got {radius}")
        return radius


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


@dataclass(frozen=True)
class RotaryParams:
    """`sections` counts the dimension pairs of each axis. By default a
    quarter of the head_dim/2 pairs (rounded down) goes to height, as many to
    width, and the rest to the temporal axis: (16, 8, 8) at head_dim 64."""

    head_dim: int
    sections: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise CircleRopeError(f"head_dim must be even and positive, got {self.head_dim}")
        if self.sections is None:
            quarter = self.head_dim // 8
            object.__setattr__(self, "sections",
                               (self.head_dim // 2 - 2 * quarter, quarter, quarter))
        if len(self.sections) != 3 or any(s < 0 for s in self.sections):
            raise CircleRopeError(f"sections must be 3 non-negative counts, got {self.sections}")
        if sum(self.sections) != self.head_dim // 2:
            raise CircleRopeError(
                f"sections {self.sections} must sum to head_dim/2 = {self.head_dim // 2}"
            )

    def frequencies(self):
        """Per-pair frequency, a (head_dim/2,) float64 array. Each section
        restarts its geometric ladder at exponent zero."""
        import numpy as np  # here, not at load; a float ** is an ulp off on most configs
        ranks = np.concatenate([np.arange(s) for s in self.sections])
        return 10000.0 ** (-2.0 * ranks / self.head_dim)


class LayerSchedule(tuple):
    """Per layer, from layer 1 up: True if the circle scheme uses its circle
    indices there, False if it uses the spatial ones. `num_layers` is the
    length, kept for the benchmark's tracer."""

    num_layers = property(len)


def make_schedule(num_layers: int, strategy: ScheduleStrategy) -> LayerSchedule:
    """Build a schedule. Alternating puts circle indices on even layers;
    upper/lower split at ceil(n/2)."""
    if num_layers < 1:
        raise CircleRopeError(f"num_layers must be >= 1, got {num_layers}")
    # a plain string equals its member, so test the type, not the key
    if not isinstance(strategy, ScheduleStrategy):
        raise CircleRopeError(f"unknown strategy {strategy!r}")
    split = math.ceil(num_layers / 2)
    rule = {
        ScheduleStrategy.ALL_CIRCLE: lambda layer: True,
        ScheduleStrategy.UPPER_HALF_CIRCLE: lambda layer: layer > split,
        ScheduleStrategy.LOWER_HALF_CIRCLE: lambda layer: layer <= split,
        ScheduleStrategy.ALTERNATING: lambda layer: layer % 2 == 0,
    }[strategy]
    return LayerSchedule(rule(layer) for layer in range(1, num_layers + 1))
