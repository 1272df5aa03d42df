import math

import numpy as np
import pytest

from circle_rope.geometry import CipConfig, FixedRadius
from circle_rope.metrics import DistanceMatrix, distance_matrix, ptd, ptd_of
from circle_rope.schemes import assign, parse_layout
from circle_rope.spec import CircleRopeError


def brute_force_ptd(values):
    """Independent double-loop evaluation of the row-deviation mean."""
    n_text, n_image = values.shape
    total = 0.0
    for t in range(n_text):
        row_mean = sum(values[t]) / n_image
        for i in range(n_image):
            total += abs(values[t][i] - row_mean)
    return total / (n_text * n_image)


LAYOUT = parse_layout("i3x3,t5")


class TestDistanceMatrix:
    def test_hard_scalar_convention(self):
        matrix = distance_matrix(assign("hard", LAYOUT))
        assert matrix.convention == "scalar"
        # text token at scalar 9 vs image token at 0
        assert matrix.values[0, 0] == 9.0

    def test_unordered_rows_constant(self):
        matrix = distance_matrix(assign("unordered", LAYOUT))
        assert np.all(matrix.values == matrix.values[:, :1])

    def test_spatial_planar_convention(self):
        matrix = distance_matrix(assign("spatial", LAYOUT))
        assert matrix.convention == "planar"
        # text scalar 3 vs image (0, 0): sqrt(3^2 + 3^2)
        assert matrix.values[0, 0] == pytest.approx(math.sqrt(18))

    def test_circle_rows_constant(self):
        config = CipConfig(radius=FixedRadius(10.0), beta=1.0)
        matrix = distance_matrix(assign("circle", LAYOUT, config))
        assert matrix.convention == "3d"
        for t, row in enumerate(matrix.values):
            expected = math.sqrt(3 * (t + 3) ** 2 + 100)
            assert np.allclose(row, expected, atol=1e-9)

    def test_missing_modality(self):
        with pytest.raises(CircleRopeError, match="both modalities"):
            distance_matrix(assign("hard", parse_layout("t3")))
        with pytest.raises(CircleRopeError, match="both modalities"):
            DistanceMatrix(np.zeros((0, 3)), np.ones((5, 3)))


class TestPtd:
    def test_hard_paper_value(self):
        assert ptd_of(assign("hard", LAYOUT)) == pytest.approx(2.22, abs=0.01)

    def test_unordered_zero(self):
        assert ptd_of(assign("unordered", LAYOUT)) == 0.0

    def test_circle_zero(self):
        config = CipConfig(radius=FixedRadius(10.0), beta=1.0)
        assert ptd_of(assign("circle", LAYOUT, config)) < 1e-9

    def test_spatial_band(self):
        assert 0.60 <= ptd_of(assign("spatial", LAYOUT)) <= 0.70

    def test_nonnegative_and_zero_iff_constant_rows(self):
        rng = np.random.default_rng(3)
        text = rng.uniform(0, 10, size=(4, 3))
        assert ptd(DistanceMatrix(text, rng.uniform(0, 10, size=(6, 3)))) > 0
        # every image token at one point: each row is constant
        one_point = np.repeat(rng.uniform(0, 10, size=(1, 3)), 6, axis=0)
        assert ptd(DistanceMatrix(text, one_point)) == pytest.approx(0.0, abs=1e-12)

    def test_translation_invariance(self):
        config = CipConfig(radius=FixedRadius(10.0), beta=0.7)
        seq = assign("circle", LAYOUT, config)
        text = seq.indices("text")
        image = seq.indices("image")
        shift = np.array([2.5, -7.0, 11.0])

        base = DistanceMatrix(text, image)
        moved = DistanceMatrix(text + shift, image + shift)
        assert base.convention == moved.convention == "3d"
        assert ptd(moved) == pytest.approx(ptd(base), abs=1e-12)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(5)
        text = rng.uniform(0, 10, size=(8, 3))
        image = rng.uniform(0, 10, size=(12, 3))
        assert ptd(DistanceMatrix(3.0 * text, 3.0 * image)) == pytest.approx(
            3.0 * ptd(DistanceMatrix(text, image)), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_text = int(rng.integers(1, 65))
        n_image = int(rng.integers(1, 513))
        text = rng.uniform(0, 100, size=(n_text, 3))
        image = rng.uniform(0, 100, size=(n_image, 3))
        values = np.linalg.norm(text[:, None, :] - image[None, :, :], axis=2)
        assert ptd(DistanceMatrix(text, image)) == pytest.approx(
            brute_force_ptd(values), abs=1e-12
        )
