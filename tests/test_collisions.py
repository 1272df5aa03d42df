"""Pinned current behaviour: where the CIP projection puts two grid tokens
on one circle point. The 12 x 5 grid (width 12, height 5) at R = 10."""

import numpy as np
import pytest

from circle_rope.geometry import CipConfig, FixedRadius, GridSpec, cip_transform

GRID = GridSpec(width=12, height=5)


def projected(alpha):
    return cip_transform(GRID, CipConfig(alpha=alpha, radius=FixedRadius(10.0))).projected


def distance(points, a, b):
    """Distance between the tokens at (row, col) a and b, row-major."""
    (ra, ca), (rb, cb) = a, b
    return float(np.linalg.norm(points[ra * GRID.width + ca] - points[rb * GRID.width + cb]))


def separations(points):
    gaps = np.linalg.norm(points[:, None] - points[None], axis=2)
    return gaps[np.triu_indices(len(points), 1)]


def test_mixed_angles_collide_at_alpha_half():
    points = projected(0.5)
    assert distance(points, (0, 7), (2, 3)) == 0.0
    assert np.count_nonzero(separations(points) < 1e-9) == 1


def test_tokens_on_one_ray_collide_at_alpha_one():
    assert distance(projected(1.0), (1, 0), (2, 0)) == 0.0


def test_grid_index_angles_keep_tokens_apart_at_alpha_zero():
    assert separations(projected(0.0)).min() == pytest.approx(1.0467, abs=1e-4)
