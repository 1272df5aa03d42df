import math

import numpy as np
import pytest

from circle_rope.geometry import CipConfig, FixedRadius, GridSpec, centralize, grid_coords
from circle_rope.metrics import ptd_of
from circle_rope.schemes import (
    IMAGE,
    TEXT,
    LayoutError,
    TextSegment,
    assign,
    assign_circle,
    assign_hard,
    assign_spatial,
    assign_unordered,
    parse_layout,
)


def img(w, h):
    return GridSpec(width=w, height=h)


class TestParseLayout:
    def test_image_and_text(self):
        segs = parse_layout("i3x3,t5")
        assert segs == [img(3, 3), TextSegment(5)]

    def test_bad_segment(self):
        with pytest.raises(LayoutError, match="x7"):
            parse_layout("t3,x7")

    def test_bad_grid(self):
        with pytest.raises(LayoutError):
            parse_layout("i3y3")

    def test_empty(self):
        with pytest.raises(LayoutError):
            parse_layout("")


class TestAssignHard:
    def test_image_then_text(self):
        seq = assign_hard([img(3, 3), TextSegment(5)])
        scalars = seq.indices()[:, 0].tolist()
        assert scalars == list(range(14))
        assert seq.modality[:9].tolist() == [IMAGE] * 9
        assert seq.modality[9:].tolist() == [TEXT] * 5

    def test_text_only(self):
        seq = assign_hard([TextSegment(2)])
        assert seq.indices().tolist() == [[0, 0, 0], [1, 1, 1]]

    def test_sandwich(self):
        seq = assign_hard([TextSegment(1), img(2, 2), TextSegment(1)])
        assert seq.indices()[:, 0].tolist() == [0, 1, 2, 3, 4, 5]


class TestAssignUnordered:
    def test_image_then_text(self):
        seq = assign_unordered([img(3, 3), TextSegment(5)])
        assert seq.indices()[:, 0].tolist() == [0] * 9 + [1, 2, 3, 4, 5]

    def test_text_then_image(self):
        seq = assign_unordered([TextSegment(1), img(2, 2)])
        assert seq.indices()[:, 0].tolist() == [0, 1, 1, 1, 1]

    def test_two_images(self):
        seq = assign_unordered([img(2, 2), img(2, 2)])
        assert seq.indices()[:, 0].tolist() == [0] * 4 + [1] * 4


class TestAssignSpatial:
    def test_image_then_text(self):
        seq = assign_spatial([img(3, 3), TextSegment(5)])
        image_idx = seq.indices()[:9].tolist()
        assert image_idx == [[0, j, i] for j in range(3) for i in range(3)]
        text_idx = seq.indices()[9:].tolist()
        assert text_idx == [[t, t, t] for t in range(3, 8)]

    def test_text_then_image(self):
        seq = assign_spatial([TextSegment(2), img(2, 2)])
        assert seq.indices()[0].tolist() == [0, 0, 0]
        assert seq.indices()[1].tolist() == [1, 1, 1]
        image_idx = seq.indices()[2:].tolist()
        assert image_idx == [[2, 2 + j, 2 + i] for j in range(2) for i in range(2)]

    def test_counter_after_image(self):
        seq = assign_spatial([TextSegment(2), img(2, 2), TextSegment(1)])
        assert seq.indices()[-1].tolist() == [4, 4, 4]

    def test_single_pixel_image(self):
        seq = assign_spatial([img(1, 1)])
        assert seq.indices()[0].tolist() == [0, 0, 0]

    def test_integer_indices(self):
        for builder in (assign_hard, assign_unordered, assign_spatial):
            seq = builder([TextSegment(3), img(4, 2), TextSegment(1)])
            idx = seq.indices()
            assert np.all(idx == np.round(idx))


class TestAssignCircle:
    def test_beta_one_on_circle(self):
        config = CipConfig(alpha=0.5, radius=FixedRadius(10.0), beta=1.0)
        seq = assign_circle([img(3, 3), TextSegment(5)], config)
        image_idx = seq.indices(IMAGE)
        assert np.allclose(np.linalg.norm(image_idx, axis=1), 10.0, atol=1e-9)
        assert np.all(np.abs(image_idx.sum(axis=1)) < 1e-9)
        assert seq.indices(TEXT).tolist() == [[t, t, t] for t in range(3, 8)]

    def test_beta_zero_is_centered_spatial(self):
        config = CipConfig(radius=FixedRadius(10.0), beta=0.0)
        seq = assign_circle([img(3, 3), TextSegment(5)], config)
        image_idx = seq.indices(IMAGE)
        expected = [[0, j - 1, i - 1] for j in range(3) for i in range(3)]
        assert np.allclose(image_idx, expected, atol=1e-12)

    def test_translation_to_text_line(self):
        config = CipConfig(radius=FixedRadius(5.0), beta=1.0)
        seq = assign_circle([TextSegment(3), img(2, 2)], config)
        image_idx = seq.indices(IMAGE)
        # circle centered on (3,3,3): distances from the center are all R
        assert np.allclose(np.linalg.norm(image_idx - 3.0, axis=1), 5.0, atol=1e-9)

    def test_beta_zero_matches_spatial_minus_center(self):
        config = CipConfig(radius=FixedRadius(10.0), beta=0.0)
        segments = [TextSegment(4), img(3, 2), TextSegment(2)]
        circ = assign_circle(segments, config).indices(IMAGE)
        spatial = assign_spatial(segments).indices(IMAGE)
        _, center = centralize(grid_coords(GridSpec(3, 2)))
        assert np.allclose(circ, spatial - center, atol=1e-12)

    def test_counter_advances_like_spatial(self):
        config = CipConfig(radius=FixedRadius(10.0), beta=1.0)
        seq = assign_circle([img(3, 3), TextSegment(1)], config)
        assert seq.indices()[-1].tolist() == [3, 3, 3]


class TestSchemeProperties:
    @pytest.mark.parametrize("scheme", ["hard", "unordered", "spatial", "circle"])
    def test_token_count_preserved(self, scheme):
        segments = [TextSegment(3), img(4, 2), TextSegment(2), img(2, 2)]
        seq = assign(scheme, segments, CipConfig(radius=FixedRadius(10.0), beta=1.0))
        assert len(seq) == 3 + 8 + 2 + 4

    def test_circle_indices_finite(self):
        config = CipConfig(alpha=0.3, radius=FixedRadius(7.0), beta=0.4)
        seq = assign_circle([TextSegment(2), img(5, 4)], config)
        assert np.all(np.isfinite(seq.indices()))

    @pytest.mark.parametrize("seed", range(10))
    def test_single_image_ptd_zero(self, seed):
        rng = np.random.default_rng(seed)
        segments = []
        if rng.random() < 0.5:
            segments.append(TextSegment(int(rng.integers(1, 65))))
        segments.append(img(int(rng.integers(2, 17)), int(rng.integers(2, 17))))
        segments.append(TextSegment(int(rng.integers(1, 65))))
        config = CipConfig(
            alpha=float(rng.uniform(0, 1)),
            radius=FixedRadius(float(rng.uniform(1, 20))),
            beta=1.0,
        )
        assert ptd_of(assign_circle(segments, config)) < 1e-9

    def test_multi_image_rows_constant_per_image(self):
        # with each circle anchored at its own insertion point, a text token is
        # equidistant to all tokens of one image, but not across images
        config = CipConfig(radius=FixedRadius(10.0), beta=1.0)
        seq = assign_circle([img(3, 3), TextSegment(4), img(2, 2)], config)
        text = seq.indices(TEXT)
        image = seq.indices(IMAGE)
        first, second = image[:9], image[9:]
        for txt in text:
            d1 = np.linalg.norm(first - txt, axis=1)
            d2 = np.linalg.norm(second - txt, axis=1)
            assert np.allclose(d1, d1[0], atol=1e-9)
            assert np.allclose(d2, d2[0], atol=1e-9)

    def test_unknown_scheme(self):
        with pytest.raises(LayoutError):
            assign("spiral", [TextSegment(1)])
