"""Coordinate transforms that project image-token grid indices onto a circle.

The pipeline: center the grid, assign each point a mixed polar angle
(spatial-origin angle blended with grid-index angle), place the points on a
circle of chosen radius in a working XY plane, then rotate that circle into
the 3D plane orthogonal to the text index line. A final affine blend
(dual-frame fusion) interpolates between the projected circle and the
centered grid.

Point sets are (N, 3) float arrays. Axis 0 is the temporal/sequential axis
(zero for single-image tokens), axis 1 carries the height coordinate, axis 2
the width coordinate. Text tokens live on the line t * (1, 1, 1).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# re-exported, so that geometry.CipConfig and the like keep resolving
from .spec import STAGE_NAMES, AutoRadius, CipConfig, FixedRadius, GridSpec

TWO_PI = 2.0 * np.pi


def grid_coords(grid: GridSpec) -> np.ndarray:
    """Integer grid indices in row-major order, shape (h*w, 3).

    Row j, column i maps to (0, j, i): axis 1 holds the height coordinate,
    axis 2 the width coordinate.
    """
    points = np.zeros((grid.num_tokens, 3))
    points[:, 1], points[:, 2] = np.divmod(np.arange(grid.num_tokens), grid.width)
    return points


def centralize(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift the midrange center of a point set to the origin.

    Returns (centered points, center). The center is the component-wise
    midpoint of the bounding box, (max + min) / 2.
    """
    center = 0.5 * (points.max(axis=0) + points.min(axis=0))
    return points - center, center


def spatial_origin_angles(centered: np.ndarray) -> np.ndarray:
    """Min-max normalized polar angles of the centered (height, width) coords.

    The raw angle is atan2(height, width). The raw range [theta_min, theta_max]
    is stretched to [0, 2*pi); when all raw angles coincide the output is zero
    everywhere. The point at theta_max wraps to 0 (mod 2*pi) to keep the output
    inside the half-open interval.
    """
    raw = np.arctan2(centered[:, 1], centered[:, 2])
    delta = raw.max() - raw.min()
    if delta <= 0:
        return np.zeros(len(raw))
    return np.mod((raw - raw.min()) / delta * TWO_PI, TWO_PI)


def grid_index_angles(grid: GridSpec) -> np.ndarray:
    """Uniformly spaced angles k/N * 2*pi for flattened (row-major) index k."""
    n = grid.num_tokens
    return np.arange(n) / n * TWO_PI


def mix_angles(sa: np.ndarray, ga: np.ndarray, alpha: float) -> np.ndarray:
    """Weighted average alpha * sa + (1 - alpha) * ga."""
    return alpha * sa + (1.0 - alpha) * ga


def compute_radius(grid: GridSpec, strategy: FixedRadius | AutoRadius) -> float:
    """Resolve the circle radius of a grid by the rule in `spec`."""
    return strategy.resolve(grid)


def map_to_circle(angles: np.ndarray, radius: float) -> np.ndarray:
    """Place angles on a circle of the given radius in the working XY plane.

    Output rows are (R*cos, R*sin, 0) working coordinates.
    """
    out = np.zeros((len(angles), 3))
    out[:, 0] = radius * np.cos(angles)
    out[:, 1] = radius * np.sin(angles)
    return out


def build_plane_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, u, v): n is the unit normal of the plane orthogonal to the text
    line t * (1, 1, 1), and u = normalize((-n_y, n_x, 0)), v = n x u span it.
    """
    direction = np.ones(3)
    n = direction / np.linalg.norm(direction)
    u_raw = np.array([-n[1], n[0], 0.0])
    u = u_raw / np.linalg.norm(u_raw)
    v = np.cross(n, u)
    return n, u, v


_, _U, _V = build_plane_basis()


def rotate_to_plane(circle_points: np.ndarray) -> np.ndarray:
    """Rotate circle points from the working XY plane into the target plane.

    Each (x, y, 0) working point becomes x*u + y*v in index space.
    """
    return np.outer(circle_points[:, 0], _U) + np.outer(circle_points[:, 1], _V)


# One (N, 3) array per stage, in grid_coords order; see spec.STAGE_NAMES.
CipStages = NamedTuple("CipStages", [(name, np.ndarray) for name in STAGE_NAMES])


def cip_transform(grid: GridSpec, config: CipConfig) -> CipStages:
    """Full circular projection of a grid, with every intermediate stage."""
    centered, _ = centralize(grid_coords(grid))
    mixed = mix_angles(spatial_origin_angles(centered), grid_index_angles(grid), config.alpha)
    circle2d = map_to_circle(mixed, compute_radius(grid, config.radius))
    projected = rotate_to_plane(circle2d)
    return CipStages(centered, circle2d, projected,
                     dual_frame_fusion(projected, centered, config.beta))


def dual_frame_fusion(projected: np.ndarray, centered: np.ndarray, beta: float) -> np.ndarray:
    """Blend projected and centered coordinates: beta*projected + (1-beta)*centered."""
    return beta * projected + (1.0 - beta) * centered
