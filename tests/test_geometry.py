import math

import numpy as np
import pytest

from circle_rope.geometry import (
    AutoRadius,
    CipConfig,
    CipStages,
    FixedRadius,
    GeometryError,
    GridSpec,
    build_plane_basis,
    centralize,
    cip_transform,
    compute_radius,
    dual_frame_fusion,
    grid_coords,
    grid_index_angles,
    map_to_circle,
    mix_angles,
    rotate_to_plane,
    spatial_origin_angles,
)
from circle_rope.spec import STAGE_NAMES

TWO_PI = 2 * math.pi


def centered_grid(w, h):
    centered, _ = centralize(grid_coords(GridSpec(w, h)))
    return centered


class TestGridCoords:
    def test_single_token(self):
        assert grid_coords(GridSpec(1, 1)).tolist() == [[0, 0, 0]]

    def test_3x3_covers_grid(self):
        pts = grid_coords(GridSpec(3, 3))
        assert pts.shape == (9, 3)
        assert set(map(tuple, pts[:, 1:])) == {(j, i) for j in range(3) for i in range(3)}
        assert np.all(pts[:, 0] == 0)

    def test_2x3_ranges(self):
        pts = grid_coords(GridSpec(width=2, height=3))
        assert len(pts) == 6
        assert set(pts[:, 2]) == {0, 1}       # width coordinate
        assert set(pts[:, 1]) == {0, 1, 2}    # height coordinate

    def test_row_major_order(self):
        pts = grid_coords(GridSpec(width=3, height=2))
        assert pts[:, 1:].tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]

    def test_invalid_grid(self):
        with pytest.raises(GeometryError):
            GridSpec(0, 3)


class TestCentralize:
    def test_3x3_symmetric(self):
        centered, center = centralize(grid_coords(GridSpec(3, 3)))
        assert center.tolist() == [0, 1, 1]
        assert set(centered[:, 1]) == {-1, 0, 1}
        assert set(centered[:, 2]) == {-1, 0, 1}

    def test_2x2_half_center(self):
        centered, center = centralize(grid_coords(GridSpec(2, 2)))
        assert center.tolist() == [0, 0.5, 0.5]
        assert set(centered[:, 1]) == {-0.5, 0.5}

    def test_single_point(self):
        centered, center = centralize(np.array([[0.0, 5.0, 7.0]]))
        assert center.tolist() == [0, 5, 7]
        assert centered.tolist() == [[0, 0, 0]]

    def test_empty_rejected(self):
        with pytest.raises(GeometryError, match="empty point set"):
            centralize(np.zeros((0, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        w, h = rng.integers(1, 65, size=2)
        centered, _ = centralize(grid_coords(GridSpec(int(w), int(h))))
        _, center2 = centralize(centered)
        assert np.all(np.abs(center2) < 1e-12)


class TestSpatialOriginAngles:
    def test_collinear_degenerate(self):
        # all points share one raw angle, so delta = 0 and every output is 0
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
        assert spatial_origin_angles(pts).tolist() == [0.0, 0.0, 0.0]

    def test_3x3_hand_values(self):
        sa = spatial_origin_angles(centered_grid(3, 3))
        by_point = {tuple(p[1:]): a for p, a in zip(centered_grid(3, 3), sa)}
        # raw angle 0 at (y, x) = (0, 1); theta_min = -3pi/4, delta = 7pi/4
        assert by_point[(0.0, 1.0)] == pytest.approx(6 * math.pi / 7)

    def test_center_point_of_odd_grid(self):
        sa = spatial_origin_angles(centered_grid(3, 3))
        by_point = {tuple(p[1:]): a for p, a in zip(centered_grid(3, 3), sa)}
        # atan2(0, 0) = 0, then normalized like any raw-zero angle
        assert by_point[(0.0, 0.0)] == pytest.approx(6 * math.pi / 7)

    @pytest.mark.parametrize("w,h", [(3, 3), (2, 2), (5, 3), (1, 4), (7, 2)])
    def test_range_and_min(self, w, h):
        sa = spatial_origin_angles(centered_grid(w, h))
        assert np.all(sa >= 0)
        assert np.all(sa < TWO_PI)
        if w > 1 or h > 1:
            assert sa.min() == pytest.approx(0.0, abs=1e-15)


class TestGridIndexAngles:
    def test_first_is_zero(self):
        assert grid_index_angles(GridSpec(3, 3))[0] == 0

    def test_n9_k4(self):
        assert grid_index_angles(GridSpec(3, 3))[4] == pytest.approx(8 * math.pi / 9)

    def test_single(self):
        assert grid_index_angles(GridSpec(1, 1)).tolist() == [0.0]

    @pytest.mark.parametrize("w,h", [(3, 3), (4, 2), (1, 7)])
    def test_uniform_spacing(self, w, h):
        ga = grid_index_angles(GridSpec(w, h))
        n = w * h
        assert len(set(ga)) == n
        assert np.allclose(np.diff(ga), TWO_PI / n)


class TestMixAngles:
    def test_alpha_zero_returns_ga(self):
        sa = np.array([1.0, 2.0])
        ga = np.array([0.5, 0.25])
        assert mix_angles(sa, ga, 0.0).tolist() == ga.tolist()

    def test_alpha_one_returns_sa(self):
        sa = np.array([1.0, 2.0])
        ga = np.array([0.5, 0.25])
        assert mix_angles(sa, ga, 1.0).tolist() == sa.tolist()

    def test_midpoint(self):
        assert mix_angles(np.array([math.pi]), np.array([0.0]), 0.5)[0] == pytest.approx(math.pi / 2)

    def test_length_mismatch(self):
        with pytest.raises(GeometryError):
            mix_angles(np.zeros(2), np.zeros(3), 0.5)


class TestComputeRadius:
    def test_fixed(self):
        assert compute_radius(centered_grid(3, 3), FixedRadius(10.0)) == 10.0

    def test_auto_3x3(self):
        assert compute_radius(centered_grid(3, 3), AutoRadius(1.0)) == pytest.approx(math.sqrt(2))

    def test_auto_scaling(self):
        assert compute_radius(centered_grid(3, 3), AutoRadius(2.0)) == pytest.approx(2 * math.sqrt(2))

    def test_degenerate(self):
        with pytest.raises(GeometryError, match="degenerate radius"):
            compute_radius(centered_grid(1, 1), AutoRadius(1.0))

    @pytest.mark.parametrize("resolve", [
        lambda: compute_radius(centered_grid(3, 3), FixedRadius(math.inf)),
        lambda: compute_radius(centered_grid(3, 3), AutoRadius(math.inf)),
        lambda: compute_radius(centered_grid(64, 64), AutoRadius(1e308)),
    ], ids=["fixed-inf", "auto-inf", "auto-overflow"])
    def test_non_finite_rejected(self, resolve):
        with pytest.raises(GeometryError, match="finite"):
            resolve()


class TestMapToCircle:
    def test_angle_zero(self):
        assert map_to_circle(np.array([0.0]), 1.0).tolist() == [[1.0, 0.0, 0.0]]

    def test_quarter_turn(self):
        pt = map_to_circle(np.array([math.pi / 2]), 10.0)[0]
        assert pt == pytest.approx([0.0, 10.0, 0.0], abs=1e-9)

    def test_regular_9gon(self):
        pts = map_to_circle(grid_index_angles(GridSpec(3, 3)), 1.0)
        chords = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        assert np.allclose(chords, chords[0], atol=1e-9)

    def test_radius_invariant(self):
        pts = map_to_circle(np.linspace(0, 6, 17), 3.5)
        assert np.allclose(np.linalg.norm(pts[:, :2], axis=1), 3.5, atol=1e-9)
        assert np.all(pts[:, 2] == 0)


def assert_orthonormal(n, u, v):
    for vec in (n, u, v):
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
    assert abs(n @ u) < 1e-9
    assert abs(n @ v) < 1e-9
    assert abs(u @ v) < 1e-9
    assert np.allclose(np.cross(n, u), v)


class TestPlaneBasis:
    def test_diagonal_direction(self):
        n, u, v = build_plane_basis()
        assert np.allclose(n, np.ones(3) / math.sqrt(3))
        assert np.allclose(u, np.array([-1, 1, 0]) / math.sqrt(2))
        assert np.allclose(v, np.array([-1, -1, 2]) / math.sqrt(6))
        assert_orthonormal(n, u, v)


class TestRotateToPlane:
    def test_x_axis_maps_to_u(self):
        _, u, _ = build_plane_basis()
        out = rotate_to_plane(np.array([[5.0, 0.0, 0.0]]))
        assert np.allclose(out[0], 5.0 * u)

    def test_y_axis_maps_to_v(self):
        _, _, v = build_plane_basis()
        out = rotate_to_plane(np.array([[0.0, 5.0, 0.0]]))
        assert np.allclose(out[0], 5.0 * v)

    def test_full_pipeline_plane_equation(self):
        config = CipConfig(alpha=0.5, radius=FixedRadius(10.0))
        projected = cip_transform(GridSpec(3, 3), config).projected
        assert np.all(np.abs(projected.sum(axis=1)) < 1e-9)


class TestCipTransform:
    def test_3x3_circle_in_plane(self):
        stages = cip_transform(GridSpec(3, 3), CipConfig(alpha=0.5, radius=FixedRadius(10.0)))
        projected, centered = stages.projected, stages.centered
        assert np.allclose(np.linalg.norm(projected, axis=1), 10.0, atol=1e-9)
        assert np.all(np.abs(projected.sum(axis=1)) < 1e-9)
        assert len(centered) == 9

    def test_1x1_auto_radius_error(self):
        with pytest.raises(GeometryError, match="degenerate radius"):
            cip_transform(GridSpec(1, 1), CipConfig(radius=AutoRadius(1.0)))

    def test_1x1_fixed_radius(self):
        projected = cip_transform(GridSpec(1, 1), CipConfig(radius=FixedRadius(4.0))).projected
        _, u, _ = build_plane_basis()
        assert np.allclose(projected[0], 4.0 * u)

    def test_alpha_endpoints_same_circle(self):
        cfg0 = CipConfig(alpha=0.0, radius=FixedRadius(10.0))
        cfg1 = CipConfig(alpha=1.0, radius=FixedRadius(10.0))
        p0 = cip_transform(GridSpec(3, 3), cfg0).projected
        p1 = cip_transform(GridSpec(3, 3), cfg1).projected
        assert np.allclose(np.linalg.norm(p0, axis=1), 10.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(p1, axis=1), 10.0, atol=1e-9)
        assert not np.allclose(p0, p1)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_circle_membership_sweep(self, alpha, seed):
        rng = np.random.default_rng(seed)
        w, h = (int(x) for x in rng.integers(1, 65, size=2))
        radius = float(rng.uniform(0.5, 20.0))
        config = CipConfig(alpha=alpha, radius=FixedRadius(radius))
        projected = cip_transform(GridSpec(w, h), config).projected
        n, _, _ = build_plane_basis()
        assert np.allclose(np.linalg.norm(projected, axis=1), radius, atol=1e-9)
        assert np.all(np.abs(projected @ n) < 1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_equidistance_from_text_line(self, seed):
        rng = np.random.default_rng(100 + seed)
        w, h = (int(x) for x in rng.integers(1, 33, size=2))
        radius = float(rng.uniform(1.0, 50.0))
        t = float(rng.uniform(-100, 100))
        projected = cip_transform(
            GridSpec(w, h), CipConfig(alpha=float(rng.uniform(0, 1)), radius=FixedRadius(radius))
        ).projected
        apex = t * np.ones(3)
        dists = np.linalg.norm(projected - apex, axis=1)
        expected = math.sqrt(3 * t * t + radius * radius)
        assert np.allclose(dists, expected, atol=1e-9 * max(1.0, expected))


class TestDualFrameFusion:
    def test_beta_one(self):
        proj = np.array([[2.0, 0.0, 0.0]])
        cent = np.array([[0.0, 2.0, 0.0]])
        assert dual_frame_fusion(proj, cent, 1.0).tolist() == proj.tolist()

    def test_beta_zero(self):
        proj = np.array([[2.0, 0.0, 0.0]])
        cent = np.array([[0.0, 2.0, 0.0]])
        assert dual_frame_fusion(proj, cent, 0.0).tolist() == cent.tolist()

    def test_midpoint(self):
        out = dual_frame_fusion(np.array([[2.0, 0, 0]]), np.array([[0.0, 2, 0]]), 0.5)
        assert out.tolist() == [[1.0, 1.0, 0.0]]

    def test_shape_mismatch(self):
        with pytest.raises(GeometryError):
            dual_frame_fusion(np.zeros((2, 3)), np.zeros((3, 3)), 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_in_beta(self, seed):
        rng = np.random.default_rng(seed)
        proj = rng.standard_normal((7, 3))
        cent = rng.standard_normal((7, 3))
        b1, b2 = rng.uniform(0, 1, size=2)
        lhs = dual_frame_fusion(proj, cent, b1) + dual_frame_fusion(proj, cent, b2)
        rhs = 2 * dual_frame_fusion(proj, cent, (b1 + b2) / 2)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(0)
    centered = centered_grid(4, 5)
    perm = rng.permutation(len(centered))
    sa = spatial_origin_angles(centered)
    assert np.allclose(spatial_origin_angles(centered[perm]), sa[perm])
    circle = map_to_circle(sa, 3.0)
    assert np.allclose(map_to_circle(sa[perm], 3.0), circle[perm])
    assert np.allclose(rotate_to_plane(circle[perm]), rotate_to_plane(circle)[perm])


def test_config_is_comparable_and_hashable():
    assert CipConfig(alpha=0.3) == CipConfig(alpha=0.3)
    assert CipConfig(alpha=0.3) != CipConfig(alpha=0.4)
    assert hash(CipConfig(alpha=0.3)) == hash(CipConfig(alpha=0.3))
    assert len({CipConfig(), CipConfig(), CipConfig(beta=1.0)}) == 2


def test_config_validation():
    with pytest.raises(GeometryError):
        CipConfig(alpha=1.5)
    with pytest.raises(GeometryError):
        CipConfig(beta=-0.1)
    with pytest.raises(GeometryError):
        FixedRadius(0.0)


def test_stage_names_are_the_cip_stages_fields():
    # the CLI offers STAGE_NAMES as --stage choices without importing geometry
    assert STAGE_NAMES == CipStages._fields
