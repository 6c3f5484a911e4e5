"""Tests for the sufficient-factor (truncated SVD) baseline."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.lowrank import SufficientFactorCompressor, _matrix_shape
from repro.core.packets import CodecId, WireMessage


class TestMatrixShape:
    def test_2d_passthrough(self):
        assert _matrix_shape((10, 20)) == (10, 20)

    def test_4d_conv_kernel_flattens_trailing(self):
        assert _matrix_shape((16, 8, 3, 3)) == (16, 72)

    def test_1d_not_factorable(self):
        assert _matrix_shape((64,)) is None

    def test_degenerate_rows_not_factorable(self):
        assert _matrix_shape((1, 64)) is None
        assert _matrix_shape((64, 1)) is None


class TestSufficientFactors:
    def test_exact_on_rank1_matrix(self, rng):
        u = rng.normal(size=20).astype(np.float32)
        v = rng.normal(size=30).astype(np.float32)
        t = np.outer(u, v)
        c = SufficientFactorCompressor(rank=1)
        result = c.make_context(t.shape).compress(t)
        np.testing.assert_allclose(result.reconstruction, t, atol=1e-4)
        # Nothing left behind when the input is exactly rank 1.
        ctx = c.make_context(t.shape)
        ctx.compress(t)
        assert ctx.residual_norm() < 1e-3

    def test_rank_r_recovers_rank_r_input(self, rng):
        a = rng.normal(size=(25, 4)).astype(np.float32)
        b = rng.normal(size=(4, 35)).astype(np.float32)
        t = a @ b
        result = (
            SufficientFactorCompressor(rank=4).make_context(t.shape).compress(t)
        )
        np.testing.assert_allclose(result.reconstruction, t, atol=1e-2)

    def test_truncation_error_accumulates_for_feedback(self, rng):
        t = rng.normal(size=(30, 30)).astype(np.float32)
        ctx = SufficientFactorCompressor(rank=2).make_context(t.shape)
        result = ctx.compress(t)
        residual = t - result.reconstruction
        assert ctx.residual_norm() == pytest.approx(
            float(np.linalg.norm(residual)), rel=1e-4
        )

    def test_error_feedback_transmits_remainder_over_time(self, rng):
        # Feeding zeros after a full-rank input drains the residual: the
        # discarded spectrum flows out rank-by-rank on later steps.
        t = rng.normal(size=(16, 16)).astype(np.float32)
        ctx = SufficientFactorCompressor(rank=4).make_context(t.shape)
        ctx.compress(t)
        norms = [ctx.residual_norm()]
        for _ in range(4):
            ctx.compress(np.zeros_like(t))
            norms.append(ctx.residual_norm())
        assert norms[-1] < 1e-3
        assert all(a >= b - 1e-6 for a, b in zip(norms, norms[1:]))

    def test_payload_cost_formula(self, rng):
        t = rng.normal(size=(40, 60)).astype(np.float32)
        result = SufficientFactorCompressor(rank=3).make_context(t.shape).compress(t)
        assert len(result.message.payload) == 4 * 3 * (40 + 60)
        # Far below dense float32: 1200 vs 9600 bytes.
        assert len(result.message.payload) < 0.2 * t.nbytes

    def test_bias_fallback_is_lossless(self, rng):
        t = rng.normal(size=17).astype(np.float32)
        c = SufficientFactorCompressor(rank=2)
        result = c.make_context(t.shape).compress(t)
        np.testing.assert_array_equal(result.reconstruction, t)
        np.testing.assert_array_equal(c.decompress(result.message), t)

    def test_rank_clamped_to_matrix(self, rng):
        t = rng.normal(size=(3, 50)).astype(np.float32)
        c = SufficientFactorCompressor(rank=10)
        result = c.make_context(t.shape).compress(t)
        # Rank is min(10, 3, 50) = 3: lossless up to float32 rounding.
        np.testing.assert_allclose(result.reconstruction, t, atol=1e-4)
        assert result.message.scalars[0] == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rank"):
            SufficientFactorCompressor(rank=0)

    def test_rejects_foreign_message(self):
        bad = WireMessage(codec_id=CodecId.FLOAT32, shape=(4, 4), payload=b"")
        with pytest.raises(ValueError, match="low-rank"):
            SufficientFactorCompressor().decompress(bad)

    def test_payload_size_mismatch_detected(self):
        bad = WireMessage(
            codec_id=CodecId.LOW_RANK,
            shape=(4, 4),
            payload=b"\x00" * 12,
            scalars=(2.0,),
        )
        with pytest.raises(ValueError, match="expected"):
            SufficientFactorCompressor().decompress(bad)

    def test_factored_message_for_vector_shape_rejected(self):
        bad = WireMessage(
            codec_id=CodecId.LOW_RANK, shape=(4,), payload=b"", scalars=(1.0,)
        )
        with pytest.raises(ValueError, match="non-factorable"):
            SufficientFactorCompressor().decompress(bad)

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=4),
    )
    def test_roundtrip_property(self, rows, cols, rank):
        rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
        t = rng.normal(size=(rows, cols)).astype(np.float32)
        c = SufficientFactorCompressor(rank=rank)
        result = c.make_context(t.shape).compress(t)
        np.testing.assert_allclose(
            c.decompress(result.message), result.reconstruction, atol=1e-4
        )
        # Truncated SVD never increases the Frobenius norm of the input.
        assert float(np.linalg.norm(result.reconstruction)) <= float(
            np.linalg.norm(t)
        ) * (1 + 1e-5)
