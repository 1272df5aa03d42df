import math

import numpy as np
import pytest

from circle_rope.rope import RotaryParams, apply_rotary, logit, rotation_angles
from circle_rope.spec import CircleRopeError


def reference_1d_rope(vec, position, head_dim, base=10000.0):
    """Independent 1D rotary implementation via complex multiplication."""
    pairs = vec.reshape(-1, 2)
    z = pairs[:, 0] + 1j * pairs[:, 1]
    freqs = base ** (-2.0 * np.arange(head_dim // 2) / head_dim)
    rotated = z * np.exp(1j * position * freqs)
    return np.stack([rotated.real, rotated.imag], axis=1).reshape(-1)


class TestRotaryParams:
    def test_sections_must_sum(self):
        with pytest.raises(CircleRopeError, match=r"\(1, 1, 1\) must sum to head_dim/2 = 4"):
            RotaryParams(head_dim=8, sections=(1, 1, 1))

    @pytest.mark.parametrize("sections", [(2, 2), (5, -1, 0)])
    def test_sections_must_be_three_non_negative_counts(self, sections):
        with pytest.raises(CircleRopeError, match="sections must be 3 non-negative counts"):
            RotaryParams(8, sections=sections)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(CircleRopeError, match="head_dim must be even and positive, got 7"):
            RotaryParams(head_dim=7, sections=(2, 1, 0))
        with pytest.raises(CircleRopeError, match="even"):
            RotaryParams(7)

    def test_default_sections_fill_every_even_head_dim(self):
        for head_dim in range(2, 1025, 2):
            sections = RotaryParams(head_dim).sections
            assert sum(sections) == head_dim // 2 and min(sections) >= 0, head_dim
        assert RotaryParams(64).sections == (16, 8, 8)
        assert RotaryParams(128).sections == (32, 16, 16)


class TestRotationAngles:
    def test_zero_index(self):
        params = RotaryParams(head_dim=8, sections=(2, 1, 1))
        assert np.all(rotation_angles(np.zeros(3), params) == 0)

    def test_single_pair_sections(self):
        params = RotaryParams(head_dim=4, sections=(0, 1, 1))
        angles = rotation_angles(np.array([0.0, 2.0, 3.0]), params)
        assert angles.tolist() == [2.0, 3.0]

    def test_linearity_in_index(self):
        params = RotaryParams(head_dim=12, sections=(3, 2, 1))
        index = np.array([1.5, -2.0, 0.25])
        assert np.allclose(rotation_angles(2 * index, params), 2 * rotation_angles(index, params))

    def test_ladder_restarts_per_section(self):
        params = RotaryParams(head_dim=8, sections=(2, 2, 0))
        angles = rotation_angles(np.array([1.0, 1.0, 0.0]), params)
        # both sections start at exponent 0 with the same geometric decay
        assert angles[0] == angles[2] == 1.0
        assert angles[1] == angles[3] == pytest.approx(10000.0 ** (-2.0 / 8.0))


class TestApplyRotary:
    def test_zero_angles_identity(self):
        vec = np.arange(6, dtype=float)
        assert apply_rotary(vec, np.zeros(3)).tolist() == vec.tolist()

    def test_quarter_turn(self):
        out = apply_rotary(np.array([1.0, 0.0]), np.array([math.pi / 2]))
        assert out == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(CircleRopeError, match=r"vector dim 6 != 2 \* 2 angles"):
            apply_rotary(np.zeros(6), np.zeros(2))

    def test_broadcast_input_gives_c_contiguous_output(self):
        # a stride-0 input must not leak its layout into the result, or a
        # matmul over the rotated rows sums in another order
        key = np.broadcast_to(np.arange(8, dtype=float), (5, 8))
        out = apply_rotary(key, np.ones((5, 4)))
        assert out.flags.c_contiguous
        assert out.strides == (64, 8)

    @pytest.mark.parametrize("seed", range(10))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(16)
        angles = rng.uniform(-50, 50, size=8)
        assert np.linalg.norm(apply_rotary(vec, angles)) == pytest.approx(
            np.linalg.norm(vec), abs=1e-9
        )


class TestLogit:
    PARAMS = RotaryParams(head_dim=16, sections=(4, 2, 2))

    def test_equal_indices_plain_dot(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        idx = np.array([3.0, 1.5, -2.0])
        assert logit(q, idx, k, idx, self.PARAMS) == pytest.approx(float(q @ k), abs=1e-9)

    def test_orthogonal_at_zero(self):
        q = np.zeros(16)
        q[0] = 1.0
        k = np.zeros(16)
        k[1] = 1.0
        assert logit(q, np.zeros(3), k, np.zeros(3), self.PARAMS) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_relative_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(16)
        k = rng.standard_normal(16)
        qi = rng.uniform(-20, 20, size=3)
        ki = rng.uniform(-20, 20, size=3)
        c = float(rng.uniform(-100, 100))
        base = logit(q, qi, k, ki, self.PARAMS)
        shifted = logit(q, qi + c, k, ki + c, self.PARAMS)
        assert shifted == pytest.approx(base, abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_1d_rope_equivalence(self, seed):
        # sections (D/2, 0, 0) with replicated scalar indices reduce to 1D RoPE
        head_dim = 16
        params = RotaryParams(head_dim=head_dim, sections=(8, 0, 0))
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(head_dim)
        k = rng.standard_normal(head_dim)
        s_q = float(rng.uniform(-30, 30))
        s_k = float(rng.uniform(-30, 30))
        ours = logit(q, np.full(3, s_q), k, np.full(3, s_k), params)
        reference = float(
            reference_1d_rope(q, s_q, head_dim) @ reference_1d_rope(k, s_k, head_dim)
        )
        assert ours == pytest.approx(reference, abs=1e-9)
