"""The paper's CIP invariants as properties over random grids, alpha, radii,
and text runs: the cone (equidistance at beta=1), the plane,
and the exact endpoints of the angle mix and of dual-frame fusion."""

import numpy as np
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

grids = st.builds(GridSpec, width=st.integers(1, 24), height=st.integers(1, 24))
radii = st.one_of(st.builds(FixedRadius, st.floats(1e-3, 1e6)),
                  st.builds(AutoRadius, st.floats(1e-3, 1e3)))
alphas = st.floats(0, 1)
segments = st.lists(st.one_of(st.builds(TextSegment, st.integers(1, 6)),
                              grids), min_size=2, max_size=5)


def usable(grid, radius):
    """A single-token grid has no spread to scale an auto radius from."""
    return grid.num_tokens > 1 or isinstance(radius, FixedRadius)


@settings(max_examples=200, deadline=None)
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


@settings(max_examples=200, deadline=None)
@given(grid=grids, alpha=alphas, radius=radii)
def test_plane_projected_circle_is_orthogonal_to_the_text_direction(grid, alpha, radius):
    assume(usable(grid, radius))
    n, u, v = build_plane_basis()
    frame = np.stack([u, v, n])
    assert np.abs(frame @ frame.T - np.eye(3)).max() <= 2e-12
    assert np.abs(np.cross(u, v) - n).max() <= 2e-12
    assert np.abs(n - np.ones(3) / np.sqrt(3)).max() <= 1e-15
    stages = cip_transform(grid, CipConfig(alpha=alpha, radius=radius))
    r = compute_radius(stages.centered, radius)
    # the circle's centre is the origin, the image centre on the text line
    assert np.abs(stages.projected @ n).max() <= 2e-12 * r
    assert np.abs(np.linalg.norm(stages.projected, axis=1) - r).max() <= 2e-12 * r


@settings(max_examples=200, deadline=None)
@given(grid=grids, radius=radii, alpha=st.sampled_from([0.0, 1.0]),
       beta=st.sampled_from([0.0, 1.0]))
def test_endpoints_are_exact(grid, radius, alpha, beta):
    assume(usable(grid, radius))
    stages = cip_transform(grid, CipConfig(alpha=alpha, radius=radius, beta=beta))
    assert isinstance(stages, CipStages)
    angles = spatial_origin_angles(stages.centered) if alpha else grid_index_angles(grid)
    circle = map_to_circle(angles, compute_radius(stages.centered, radius))
    assert stages.circle2d.tobytes() == circle.tobytes()
    endpoint = stages.projected if beta else stages.centered
    assert stages.fused.tobytes() == endpoint.tobytes()
