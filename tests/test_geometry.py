import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circle_rope.geometry import (
    AutoRadius,
    CipConfig,
    CipStages,
    FixedRadius,
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
from circle_rope.spec import STAGE_NAMES, CircleRopeError

TWO_PI = 2 * math.pi


def centered_grid(w, h):
    centered, _ = centralize(grid_coords(GridSpec(w, h)))
    return centered


class TestGridCoords:
    def test_single_token(self):
        assert grid_coords(GridSpec(1, 1)).tolist() == [[0, 0, 0]]

    def test_3x3_covers_grid(self):
        pts = grid_coords(GridSpec(3, 3))
        assert pts.shape == (9, 3) and pts.dtype == np.float64
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
        with pytest.raises(CircleRopeError, match="grid must be at least 1x1, got 0x3"):
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
        with pytest.raises(CircleRopeError, match="empty point set"):
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
        with pytest.raises(CircleRopeError, match="angle list length mismatch"):
            mix_angles(np.zeros(2), np.zeros(3), 0.5)


class TestComputeRadius:
    def test_fixed(self):
        assert compute_radius(GridSpec(3, 3), FixedRadius(10.0)) == 10.0

    def test_auto_3x3(self):
        assert compute_radius(GridSpec(3, 3), AutoRadius(1.0)) == pytest.approx(math.sqrt(2))

    def test_auto_scaling(self):
        assert compute_radius(GridSpec(3, 3), AutoRadius(2.0)) == pytest.approx(2 * math.sqrt(2))

    def test_degenerate(self):
        with pytest.raises(CircleRopeError, match="degenerate radius"):
            compute_radius(GridSpec(1, 1), AutoRadius(1.0))

    def test_underflow(self):
        # the smallest subnormal times 0.5 rounds to zero
        with pytest.raises(CircleRopeError, match=r"radius must be positive, got 0\.0"):
            compute_radius(GridSpec(2, 1), AutoRadius(5e-324))

    @pytest.mark.parametrize("resolve", [
        lambda: compute_radius(GridSpec(3, 3), FixedRadius(math.inf)),
        lambda: compute_radius(GridSpec(3, 3), AutoRadius(math.inf)),
        lambda: compute_radius(GridSpec(64, 64), AutoRadius(1e308)),
    ], ids=["fixed-inf", "auto-inf", "auto-overflow"])
    def test_non_finite_rejected(self, resolve):
        with pytest.raises(CircleRopeError, match="finite"):
            resolve()

    @settings(max_examples=200, deadline=None)
    @given(grid=st.one_of(
               st.builds(GridSpec, st.integers(1, 512), st.integers(1, 512)),
               st.sampled_from([GridSpec(1, 1 << 18), GridSpec(1 << 18, 1)])),
           k=st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e308]),
                       st.floats(5e-324, 1e308)))
    def test_auto_matches_a_numpy_norm_over_every_centred_point(self, grid, k):
        """`spec`'s closed form against numpy's norm over every centred
        point, bit for bit, and message for message where a check fails."""
        max_norm = float(np.linalg.norm(centralize(grid_coords(grid))[0][:, 1:3], axis=1).max())
        radius = k * max_norm
        if max_norm == 0.0:
            expected = "degenerate radius"
        elif not np.isfinite(radius):
            expected = f"auto radius {k} * {max_norm} is not finite"
        elif radius == 0.0:
            expected = "radius must be positive, got 0.0"
        else:
            assert np.float64(AutoRadius(k).resolve(grid)).tobytes() == \
                np.float64(radius).tobytes()
            return
        with pytest.raises(CircleRopeError) as error:
            AutoRadius(k).resolve(grid)
        assert str(error.value) == expected


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
        with pytest.raises(CircleRopeError, match="degenerate radius"):
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
        with pytest.raises(CircleRopeError, match="point set shape mismatch"):
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
    with pytest.raises(CircleRopeError, match=r"alpha must be in \[0, 1\], got 1.5"):
        CipConfig(alpha=1.5)
    with pytest.raises(CircleRopeError, match=r"beta must be in \[0, 1\], got -0.1"):
        CipConfig(beta=-0.1)
    with pytest.raises(CircleRopeError, match="fixed radius must be positive and finite, got 0.0"):
        FixedRadius(0.0)


def test_stage_names_are_the_cip_stages_fields():
    # the CLI offers STAGE_NAMES as --stage choices without importing geometry
    assert STAGE_NAMES == CipStages._fields
