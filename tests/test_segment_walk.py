"""Property test: every scheme's indices over random multi-segment layouts
equal a token-by-token reference written from the scheme rules."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from circle_rope.geometry import CipConfig, FixedRadius, GridSpec, cip_transform, dual_frame_fusion
from circle_rope.schemes import IMAGE, TEXT, TextSegment, assign

segment = st.one_of(
    st.integers(1, 30).map(TextSegment),
    st.builds(GridSpec, st.integers(1, 12), st.integers(1, 12)),
)
layouts = st.lists(segment, min_size=1, max_size=6)
configs = st.builds(
    lambda alpha, radius, beta: CipConfig(alpha=alpha, radius=FixedRadius(radius), beta=beta),
    st.floats(0, 1), st.floats(0.5, 20), st.floats(0, 1),
)
# the config of the hand-written layouts in test_matches_reference's examples
HAND = CipConfig(radius=FixedRadius(10.0), beta=1.0)


def reference(scheme, segments, config):
    """Text tokens take (t, t, t) from a shared counter that advances by one.
    An image at counter b takes its scheme's block; the counter then advances
    by w*h (hard), 1 (unordered) or max(w, h) (spatial, circle)."""
    rows, modality, counter = [], [], 0
    for seg in segments:
        if isinstance(seg, TextSegment):
            for _ in range(seg.length):
                rows.append([counter] * 3)
                modality.append(TEXT)
                counter += 1
            continue
        w, h = seg.width, seg.height
        if scheme == "hard":
            block, step = [[counter + k] * 3 for k in range(w * h)], w * h
        elif scheme == "unordered":
            block, step = [[counter] * 3] * (w * h), 1
        elif scheme == "spatial":
            block = [[counter, counter + j, counter + i] for j in range(h) for i in range(w)]
            step = max(w, h)
        else:
            stages = cip_transform(seg, config)
            block = dual_frame_fusion(stages.projected, stages.centered, config.beta) + counter
            step = max(w, h)
        rows.extend(list(row) for row in block)
        modality.extend([IMAGE] * (w * h))
        counter += step
    return np.array(rows, dtype=float).reshape(-1, 3), modality


@pytest.mark.parametrize("scheme", ["hard", "unordered", "spatial", "circle"])
@settings(max_examples=60)
@given(segments=layouts, config=configs)
@example(segments=[GridSpec(3, 3), TextSegment(5)], config=HAND)
@example(segments=[TextSegment(2)], config=HAND)
@example(segments=[TextSegment(1), GridSpec(2, 2), TextSegment(1)], config=HAND)
@example(segments=[TextSegment(1), GridSpec(2, 2)], config=HAND)
@example(segments=[GridSpec(2, 2), GridSpec(2, 2)], config=HAND)
@example(segments=[TextSegment(2), GridSpec(2, 2)], config=HAND)
@example(segments=[TextSegment(2), GridSpec(2, 2), TextSegment(1)], config=HAND)
@example(segments=[GridSpec(1, 1)], config=HAND)
@example(segments=[TextSegment(3), GridSpec(4, 2), TextSegment(1)], config=HAND)
@example(segments=[GridSpec(3, 3), TextSegment(1)], config=HAND)
@example(segments=[GridSpec(2, 3), TextSegment(1)], config=HAND)  # taller than wide
def test_matches_reference(scheme, segments, config):
    seq = assign(scheme, segments, config)
    expected_index, expected_modality = reference(scheme, segments, config)
    assert np.array_equal(seq.index, expected_index)
    assert seq.modality.tolist() == expected_modality
    assert not seq.index.flags.writeable and not seq.modality.flags.writeable
    # the geometry and rope stages take this representation as it is
    assert seq.index.dtype == np.float64 and seq.index.flags.c_contiguous
