"""Multi-axis rotary embedding kernel.

Head dimensions are split into three frequency sections, one per index axis
(temporal, height, width). Each pair of dimensions in section a rotates by
index[a] * 10000**(-2d/D), where d is the pair's rank within its own section.
Indices may be fractional or negative; rotations are defined for all reals.
`RotaryParams`, with the rules of head_dim and sections, lives in `spec`.
"""

from __future__ import annotations

import numpy as np

# RotaryParams is re-exported: the benchmark resolves rope.RotaryParams
from .spec import RotaryParams


def rotation_angles(index: np.ndarray, params: RotaryParams) -> np.ndarray:
    """Rotation angle per dimension pair for (..., 3) indices: (..., head_dim/2)."""
    return np.repeat(index, params.sections, axis=-1) * params.frequencies()


def apply_rotary(vec: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotate consecutive dimension pairs (v[2j], v[2j+1]) by angles[j].

    The output is always a fresh C-contiguous array, also for a broadcast
    `vec`, so a matmul over rotated rows sums in the same order either way.
    """
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
    equal, axis 0's table, built over the largest section's ladder, serves
    every section, as a rank's frequency is the same in each. Tables are frequency-major,
    (section width, distinct values), as the outer product of frequencies
    and values lays them out; a transposing gather then fills each
    section's even and odd output entries.
    """
    index = np.ascontiguousarray(index, dtype=float)  # the int64 view below needs this layout
    bits = index.view(np.int64)
    freqs = params.frequencies()
    bounds = np.cumsum((0, *params.sections))
    replicated = bool(np.all(bits[:, 1:] == bits[:, :1]))
    out = np.empty((len(index), params.head_dim))
    pairs = out.reshape(len(index), params.head_dim // 2, 2)
    for axis in range(3):
        lo, hi = bounds[axis], bounds[axis + 1]
        if axis == 0 or not replicated:
            ladder = np.argmax(params.sections) if replicated else axis
            distinct, inverse = np.unique(bits[:, axis], return_inverse=True)
            angles = freqs[bounds[ladder]:bounds[ladder + 1], None] * distinct.view(float)
            table_cos, table_sin = np.cos(angles), np.sin(angles)
        cos, sin = table_cos[:hi - lo], table_sin[:hi - lo]
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
