"""Multi-axis rotary embedding kernel.

Head dimensions are split into three frequency sections, one per index axis
(temporal, height, width). Each pair of dimensions in section a rotates by
index[a] * 10000**(-2d/D), where d is the pair's rank within its own section.
Indices may be fractional or negative; rotations are defined for all reals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec import CircleRopeError


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

    def frequencies(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair (axis assignment, frequency). Each section restarts its
        geometric ladder at exponent zero."""
        axes = np.repeat(np.arange(3), self.sections)
        ranks = np.concatenate([np.arange(s) for s in self.sections])
        freqs = 10000.0 ** (-2.0 * ranks / self.head_dim)
        return axes, freqs


def rotation_angles(index: np.ndarray, params: RotaryParams) -> np.ndarray:
    """Rotation angle per dimension pair for (..., 3) indices: (..., head_dim/2)."""
    axes, freqs = params.frequencies()
    return index[..., axes] * freqs


def apply_rotary(vec: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive dimension pairs (v[2j], v[2j+1]) by angles[j].

    The output is always a fresh C-contiguous array, also for a broadcast
    `vec`, so a matmul over rotated rows sums in the same order either way.
    """
    if vec.shape[-1] != 2 * angles.shape[-1]:
        raise CircleRopeError(f"vector dim {vec.shape[-1]} != 2 * {angles.shape[-1]} angles")
    cos = np.cos(angles)
    sin = np.sin(angles)
    even = vec[..., 0::2]
    odd = vec[..., 1::2]
    out = np.empty(vec.shape)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def rotate_key(key: np.ndarray, index: np.ndarray, params: RotaryParams) -> np.ndarray:
    """Rotate one (head_dim,) key to each row of (N, 3) indices: (N, head_dim).

    Equal byte for byte to `apply_rotary(np.broadcast_to(key, (N, head_dim)),
    rotation_angles(index, params))`, and likewise fresh and C-contiguous. It
    computes each angle, its cos/sin and the rotated key pair once per
    distinct (axis value, frequency): axis values are told apart by bit
    pattern, so -0.0 and 0.0 stay apart. When the three index columns are
    equal, one table over the widest section's ladder serves every section,
    as a rank's frequency is the same in each. Tables are frequency-major,
    (section width, distinct values), as the outer product of frequencies
    and values lays them out; a transposing gather then fills each
    section's even and odd output entries.
    """
    index = np.ascontiguousarray(index, dtype=float)  # the int64 view below needs this layout
    if key.shape != (params.head_dim,) or index.ndim != 2 or index.shape[1] != 3:
        raise CircleRopeError(f"need a ({params.head_dim},) key and (N, 3) indices, "
                        f"got {key.shape} and {index.shape}")
    bits = index.view(np.int64)
    _, freqs = params.frequencies()
    bounds = np.cumsum((0, *params.sections))
    replicated = bool(np.all(bits[:, 1:] == bits[:, :1]))
    widest = int(np.argmax(params.sections))
    tables = {}
    out = np.empty((len(index), params.head_dim))
    pairs = out.reshape(len(index), params.head_dim // 2, 2)
    for axis in range(3):
        lo, hi = bounds[axis], bounds[axis + 1]
        column, ladder = (0, widest) if replicated else (axis, axis)
        if column not in tables:
            distinct, inverse = np.unique(bits[:, column], return_inverse=True)
            angles = freqs[bounds[ladder]:bounds[ladder + 1], None] * distinct.view(float)
            tables[column] = inverse, np.cos(angles), np.sin(angles)
        inverse, cos, sin = tables[column]
        cos, sin = cos[:hi - lo], sin[:hi - lo]
        even = key[2 * lo:2 * hi:2, None]
        odd = key[2 * lo + 1:2 * hi:2, None]
        pairs[:, lo:hi, 0] = (even * cos - odd * sin).T[inverse]
        pairs[:, lo:hi, 1] = (even * sin + odd * cos).T[inverse]
    return out


def logit(
    q: np.ndarray,
    q_index: np.ndarray,
    k: np.ndarray,
    k_index: np.ndarray,
    params: RotaryParams,
) -> float:
    """Attention score: dot product of the rotated query and key."""
    q_rot = apply_rotary(q, rotation_angles(q_index, params))
    k_rot = apply_rotary(k, rotation_angles(k_index, params))
    return float(q_rot @ k_rot)
