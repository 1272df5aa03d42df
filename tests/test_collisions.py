"""Pinned current behaviour: where the CIP projection puts two grid tokens
on one circle point: the 12 x 5 grid at R = 10, and 1-wide or 1-high grids."""

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


def test_one_row_or_column_collapses_at_alpha_one():
    # min-max normalisation sends a row's raw angles 0 and pi, or a column's
    # -pi/2 and pi/2, to 0 and 2*pi = 0; an odd column's middle token lands at pi
    config = CipConfig(alpha=1.0, radius=FixedRadius(10.0))
    for (w, h), count in {(5, 1): 1, (3, 1): 1, (2, 1): 1, (1, 4): 1, (1, 2): 1, (1, 5): 2}.items():
        circle2d = cip_transform(GridSpec(w, h), config).circle2d
        assert len(np.unique(circle2d, axis=0)) == count, (w, h)
