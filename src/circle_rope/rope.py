"""Multi-axis rotary embedding kernel.

Head dimensions are split into three frequency sections, one per index axis
(temporal, height, width). Each pair of dimensions in section a rotates by
index[a] * base**(-2d/D), where d is the pair's rank within its own section.
Indices may be fractional or negative; rotations are defined for all reals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RopeError(ValueError):
    pass


@dataclass(frozen=True)
class RotaryParams:
    head_dim: int
    base: float = 10000.0
    sections: tuple[int, int, int] = (16, 8, 8)

    def __post_init__(self) -> None:
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise RopeError(f"head_dim must be even and positive, got {self.head_dim}")
        if self.base <= 0:
            raise RopeError(f"base must be positive, got {self.base}")
        if len(self.sections) != 3 or any(s < 0 for s in self.sections):
            raise RopeError(f"sections must be 3 non-negative counts, got {self.sections}")
        if sum(self.sections) != self.head_dim // 2:
            raise RopeError(
                f"sections {self.sections} must sum to head_dim/2 = {self.head_dim // 2}"
            )

    def frequencies(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair (axis assignment, frequency). Each section restarts its
        geometric ladder at exponent zero."""
        axes = np.repeat(np.arange(3), self.sections)
        ranks = np.concatenate([np.arange(s) for s in self.sections])
        freqs = self.base ** (-2.0 * ranks / self.head_dim)
        return axes, freqs


def rotation_angles(index: np.ndarray, params: RotaryParams) -> np.ndarray:
    """Rotation angle per dimension pair for (..., 3) indices: (..., head_dim/2)."""
    index = np.asarray(index, dtype=float)
    axes, freqs = params.frequencies()
    return index[..., axes] * freqs


def apply_rotary(vec: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive dimension pairs (v[2j], v[2j+1]) by angles[j].

    The output is always a fresh C-contiguous array, also for a broadcast
    `vec`, so a matmul over rotated rows sums in the same order either way.
    """
    vec = np.asarray(vec, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if vec.shape[-1] != 2 * angles.shape[-1]:
        raise RopeError(f"vector dim {vec.shape[-1]} != 2 * {angles.shape[-1]} angles")
    cos = np.cos(angles)
    sin = np.sin(angles)
    even = vec[..., 0::2]
    odd = vec[..., 1::2]
    out = np.empty(vec.shape)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
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
