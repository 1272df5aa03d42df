import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circle_rope.geometry import CipConfig, FixedRadius, GridSpec, centralize, grid_coords
from circle_rope.metrics import ptd_of
from circle_rope.schemes import (
    IMAGE,
    TEXT,
    TextSegment,
    assign,
    assign_circle,
    assign_hard,
    assign_spatial,
    assign_unordered,
    parse_layout,
)
from circle_rope.spec import CircleRopeError


def img(w, h):
    return GridSpec(width=w, height=h)


# Layout segments, well-formed or nearly: sizes that int() takes but the
# grammar does not, whitespace around and inside segments, other letters.
_sizes = st.integers(1, 999).map(str) | st.sampled_from(
    ["0", "-1", "05", "+5", "1_0", "\u0663", "\uff15", " 5", ""])
_space = st.sampled_from(["", " ", "\t", "\u00a0"])
LAYOUT_SEGMENTS = st.one_of(
    st.tuples(_space, st.just("t"), _sizes, _space),
    st.tuples(_space, st.just("i"), _sizes, st.just("x"), _sizes, _space),
    st.tuples(st.sampled_from("tixq"), _sizes, st.sampled_from("xy"), _sizes),
).map("".join)


class TestParseLayout:
    def test_image_and_text(self):
        segs = parse_layout("i3x3,t5")
        assert segs == [img(3, 3), TextSegment(5)]

    def test_bad_segment(self):
        with pytest.raises(CircleRopeError, match="x7"):
            parse_layout("t3,x7")

    def test_bad_grid(self):
        with pytest.raises(CircleRopeError, match="bad layout segment 'i3y3'"):
            parse_layout("i3y3")

    def test_empty(self):
        with pytest.raises(CircleRopeError, match="empty segment in layout ''"):
            parse_layout("")

    def test_zero_length_text(self):
        with pytest.raises(CircleRopeError, match="text run length must be >= 1, got 0"):
            TextSegment(0)
        with pytest.raises(CircleRopeError, match="text run length must be >= 1, got 0"):
            parse_layout("t0,i3x3")

    def test_whitespace_around_segments_is_accepted(self):
        assert parse_layout(" t5 , i3x3 ") == parse_layout("t5,i3x3")
        assert parse_layout("\tt5,\u00a0i3x3\n") == parse_layout("t5,i3x3")

    @settings(max_examples=500)
    @given(st.lists(LAYOUT_SEGMENTS, min_size=1, max_size=3).map(",".join) | st.text(max_size=8))
    def test_grammar(self, text):
        # parses exactly when the text is comma-separated t<N> and i<W>x<H>
        # segments, whitespace around each only, every N, W and H ASCII
        # digits and at least 1; the segments render back to the text
        # without its whitespace and the numbers' leading zeros
        try:
            segments = parse_layout(text)
        except CircleRopeError:
            segments = None
        segment = r"\s*(t[0-9]+|i[0-9]+x[0-9]+)\s*"
        valid = (re.fullmatch(rf"{segment}(,{segment})*", text) is not None
                 and all(int(n) >= 1 for n in re.findall("[0-9]+", text)))
        assert (segments is not None) == valid
        if valid:
            rendered = ",".join(f"t{seg.length}" if isinstance(seg, TextSegment)
                                else f"i{seg.width}x{seg.height}" for seg in segments)
            assert rendered == re.sub(r"\s|(?<![0-9])0+(?=[0-9])", "", text)


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
        with pytest.raises(CircleRopeError, match="unknown scheme 'spiral'"):
            assign("spiral", [TextSegment(1)])
