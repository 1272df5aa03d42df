"""The paper's CIP invariants as properties over random grids, alpha, radii,
and text runs: the cone (equidistance at beta=1), the plane,
and the exact endpoints of the angle mix and of dual-frame fusion. Also the
abstract's claim that CIP preserves intra-image spatial information, as two
scores of the fused stage on fixed grids."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from circle_rope.geometry import (
    AutoRadius,
    CipConfig,
    CipStages,
    FixedRadius,
    GridSpec,
    build_plane_basis,
    cip_transform,
    compute_radius,
    grid_index_angles,
    map_to_circle,
    spatial_origin_angles,
)
from circle_rope.schemes import IMAGE, TextSegment, assign

grids = st.builds(GridSpec, width=st.integers(1, 64), height=st.integers(1, 64))
radii = st.one_of(st.builds(FixedRadius, st.floats(1e-3, 1e6)),
                  st.builds(AutoRadius, st.floats(1e-3, 1e3)))
alphas = st.floats(0, 1)
segments = st.lists(st.one_of(st.builds(TextSegment, st.integers(1, 6)),
                              grids), min_size=2, max_size=5)


def usable(grid, radius):
    """A single-token grid has no spread to scale an auto radius from."""
    return grid.num_tokens > 1 or isinstance(radius, FixedRadius)


@settings(max_examples=200)
@given(layout=segments, alpha=alphas, radius=radii)
def test_cone_every_text_token_is_equidistant_from_each_image(layout, alpha, radius):
    kinds = {type(seg) for seg in layout}
    assume(kinds == {TextSegment, GridSpec})
    assume(all(usable(seg, radius) for seg in layout if isinstance(seg, GridSpec)))
    seq = assign("circle", layout, CipConfig(alpha=alpha, radius=radius, beta=1.0))
    text = seq.indices("text")
    start = 0
    for seg in layout:
        if isinstance(seg, TextSegment):
            start += seg.length
            continue
        image = seq.index[start:start + seg.num_tokens]
        assert (seq.modality[start:start + seg.num_tokens] == IMAGE).all()
        start += seg.num_tokens
        dists = np.linalg.norm(text[:, None, :] - image[None, :, :], axis=2)
        spread = dists.max(axis=1) - dists.min(axis=1)
        assert (spread <= 1e-9 * dists.max(axis=1)).all(), spread.max()


@settings(max_examples=200)
@given(grid=grids, alpha=alphas, radius=radii)
def test_plane_projected_circle_is_orthogonal_to_the_text_direction(grid, alpha, radius):
    assume(usable(grid, radius))
    n, u, v = build_plane_basis()
    frame = np.stack([u, v, n])
    assert np.abs(frame @ frame.T - np.eye(3)).max() <= 2e-12
    assert np.abs(np.cross(u, v) - n).max() <= 2e-12
    assert np.abs(n - np.ones(3) / np.sqrt(3)).max() <= 1e-15
    stages = cip_transform(grid, CipConfig(alpha=alpha, radius=radius))
    r = compute_radius(grid, radius)
    # the circle's centre is the origin, the image centre on the text line
    assert np.abs(stages.projected @ n).max() <= 2e-12 * r
    assert np.abs(np.linalg.norm(stages.projected, axis=1) - r).max() <= 2e-12 * r


@settings(max_examples=200)
@given(grid=grids, radius=radii, alpha=st.sampled_from([0.0, 1.0]),
       beta=st.sampled_from([0.0, 1.0]))
def test_endpoints_are_exact(grid, radius, alpha, beta):
    assume(usable(grid, radius))
    stages = cip_transform(grid, CipConfig(alpha=alpha, radius=radius, beta=beta))
    assert isinstance(stages, CipStages)
    angles = spatial_origin_angles(stages.centered) if alpha else grid_index_angles(grid)
    circle = map_to_circle(angles, compute_radius(grid, radius))
    assert stages.circle2d.tobytes() == circle.tobytes()
    endpoint = stages.projected if beta else stages.centered
    assert stages.fused.tobytes() == endpoint.tobytes()


def average_ranks(values):
    """Ranks from 1, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def spatial_fidelity(grid, alpha, beta):
    """(rho, nn4) of the fused stage at R = 10. rho is Spearman's rank
    correlation between grid and fused pairwise distances; nn4 is the share
    of tokens whose nearest fused neighbour is one of their four grid
    neighbours."""
    stages = cip_transform(grid, CipConfig(alpha=alpha, radius=FixedRadius(10.0), beta=beta))
    grid_dist, fused_dist = (np.linalg.norm(p[:, None] - p[None], axis=2)
                             for p in (stages.centered, stages.fused))
    upper = np.triu_indices(grid.num_tokens, 1)
    rho = np.corrcoef(average_ranks(grid_dist[upper]), average_ranks(fused_dist[upper]))[0, 1]
    np.fill_diagonal(fused_dist, np.inf)
    nearest = fused_dist.argmin(axis=1)
    return rho, np.mean(grid_dist[np.arange(grid.num_tokens), nearest] == 1.0)


# rho / nn4 at (alpha, beta) = (0.5, 0.1), (0, 0.1), (0.5, 1):
# 8x8 0.93 / 1.00, 0.93 / 0.97, 0.53 / 0.33; 12x5 0.94 / 1.00, 0.94 / 0.87,
# 0.41 / 0.53; 32x32 0.99 / 1.00, 0.99 / 1.00, 0.55 / 0.08
@pytest.mark.parametrize("grid", [GridSpec(8, 8), GridSpec(12, 5), GridSpec(32, 32)],
                         ids=["8x8", "12x5", "32x32"])
def test_fused_stage_keeps_the_grid_layout_and_dual_frame_fusion_is_what_keeps_it(grid):
    fused = {alpha: spatial_fidelity(grid, alpha, 0.1) for alpha in (0.0, 0.5)}
    assert all(rho >= 0.9 and nn4 >= 0.85 for rho, nn4 in fused.values()), fused
    circle_rho, _ = spatial_fidelity(grid, 0.5, 1.0)
    assert circle_rho <= fused[0.5][0] - 0.3, (fused, circle_rho)
