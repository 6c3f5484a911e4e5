"""Tests for the QSGD baseline (unbiased quantization + Elias coding)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.qsgd import QSGDCompressor, qsgd_dequantize, qsgd_quantize
from repro.core.packets import CodecId, WireMessage


class TestQuantize:
    def test_levels_in_range(self, rng):
        t = rng.normal(size=1000).astype(np.float32)
        norm, signs, level = qsgd_quantize(t, 3, rng)
        assert level.min() >= 0 and level.max() <= 3
        assert norm == pytest.approx(float(np.linalg.norm(t)))

    def test_signs_match_input(self, rng):
        t = np.array([1.0, -1.0, 0.5, -0.5], dtype=np.float32)
        _, signs, _ = qsgd_quantize(t, 7, rng)
        np.testing.assert_array_equal(signs, [False, True, False, True])

    def test_zero_tensor(self, rng):
        norm, signs, level = qsgd_quantize(np.zeros(10, dtype=np.float32), 3, rng)
        assert norm == 0.0
        assert not level.any()

    def test_exact_grid_points_are_deterministic(self, rng):
        # Values exactly on the quantization grid have zero stochastic
        # residual, so every draw returns the same level.
        t = np.array([3.0, 4.0], dtype=np.float32)  # norm 5
        for _ in range(10):
            norm, signs, level = qsgd_quantize(t, 5, rng)
            np.testing.assert_array_equal(level, [3, 4])

    def test_unbiasedness(self):
        # E[dequantize(quantize(x))] == x is QSGD's defining property.
        t = np.array([0.3, -0.7, 0.05, 0.0], dtype=np.float32)
        rng = np.random.default_rng(7)
        total = np.zeros_like(t, dtype=np.float64)
        trials = 3000
        for _ in range(trials):
            norm, signs, level = qsgd_quantize(t, 2, rng)
            total += qsgd_dequantize(norm, signs, level, 2)
        np.testing.assert_allclose(total / trials, t, atol=0.02)

    def test_invalid_levels(self, rng):
        with pytest.raises(ValueError, match="levels"):
            qsgd_quantize(np.ones(3, dtype=np.float32), 0, rng)


class TestCompressor:
    def test_traffic_well_below_float32(self, rng):
        t = rng.normal(size=10000).astype(np.float32)
        result = QSGDCompressor(bits=2).make_context(t.shape).compress(t)
        # 1 sign bit + ~1-3 gamma bits per value.
        assert result.bits_per_value() < 6.0

    def test_sparser_input_costs_fewer_bits(self, rng):
        dense = rng.normal(size=5000).astype(np.float32)
        sparse = dense.copy()
        sparse[np.abs(sparse) < 2.0] = 0.0
        c = QSGDCompressor(bits=2)
        dense_bits = c.make_context(dense.shape).compress(dense).bits_per_value()
        sparse_bits = c.make_context(sparse.shape).compress(sparse).bits_per_value()
        assert sparse_bits < dense_bits

    def test_no_error_feedback(self, rng):
        # QSGD is unbiased and keeps no residual state.
        t = rng.normal(size=64).astype(np.float32)
        ctx = QSGDCompressor(bits=2).make_context(t.shape)
        ctx.compress(t)
        assert ctx.residual_norm() == 0.0

    def test_deterministic_per_key(self):
        t = np.linspace(-1, 1, 64).astype(np.float32)
        c = QSGDCompressor(bits=2, seed=5)
        a = c.make_context(t.shape, key=("push", 0, "w")).compress(t)
        b = c.make_context(t.shape, key=("push", 0, "w")).compress(t)
        assert a.message.payload == b.message.payload

    def test_independent_streams_per_key(self, rng):
        t = rng.normal(size=512).astype(np.float32)
        c = QSGDCompressor(bits=2, seed=5)
        a = c.make_context(t.shape, key=("push", 0, "w")).compress(t)
        b = c.make_context(t.shape, key=("push", 1, "w")).compress(t)
        assert a.message.payload != b.message.payload

    def test_bits_validation(self):
        with pytest.raises(ValueError, match="bits"):
            QSGDCompressor(bits=0)
        with pytest.raises(ValueError, match="bits"):
            QSGDCompressor(bits=17)

    def test_rejects_foreign_message(self, rng):
        t = rng.normal(size=8).astype(np.float32)
        result = QSGDCompressor().make_context(t.shape).compress(t)
        bad = WireMessage(
            codec_id=CodecId.FLOAT32,
            shape=result.message.shape,
            payload=result.message.payload,
            scalars=result.message.scalars,
        )
        with pytest.raises(ValueError, match="QSGD"):
            QSGDCompressor().decompress(bad)

    def test_corrupted_levels_detected(self, rng):
        # Splice a gamma stream encoding an out-of-range level.
        from repro.core.elias import elias_gamma_encode

        t = np.ones(8, dtype=np.float32)
        result = QSGDCompressor(bits=2).make_context(t.shape).compress(t)
        signs = result.message.payload[:1]
        forged = signs + elias_gamma_encode(np.full(8, 99, dtype=np.int64))
        bad = WireMessage(
            codec_id=CodecId.QSGD,
            shape=result.message.shape,
            payload=forged,
            scalars=result.message.scalars,
        )
        with pytest.raises(ValueError, match="range"):
            QSGDCompressor(bits=2).decompress(bad)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=400))
    def test_roundtrip_property(self, bits, size):
        rng = np.random.default_rng(size * 31 + bits)
        t = rng.normal(size=size).astype(np.float32)
        c = QSGDCompressor(bits=bits, seed=0)
        result = c.make_context(t.shape).compress(t)
        np.testing.assert_array_equal(
            c.decompress(result.message), result.reconstruction
        )
        # The reconstruction error is bounded by one grid cell per value.
        grid = float(np.linalg.norm(t)) / ((1 << bits) - 1)
        assert np.max(np.abs(result.reconstruction - t)) <= grid + 1e-5


class TestCoding:
    def test_delta_roundtrip(self, rng):
        t = rng.normal(size=300).astype(np.float32)
        c = QSGDCompressor(bits=6, coding="delta")
        result = c.make_context(t.shape).compress(t)
        np.testing.assert_array_equal(
            c.decompress(result.message), result.reconstruction
        )

    def test_coding_recorded_in_frame(self, rng):
        t = rng.normal(size=64).astype(np.float32)
        gamma = QSGDCompressor(bits=4, coding="gamma")
        delta = QSGDCompressor(bits=4, coding="delta")
        g = gamma.make_context(t.shape).compress(t).message
        d = delta.make_context(t.shape).compress(t).message
        assert g.scalars[2] == 0.0 and d.scalars[2] == 1.0
        # Frames are self-describing: either compressor decodes both.
        np.testing.assert_array_equal(gamma.decompress(d), delta.decompress(d))

    def test_gamma_is_the_right_default_on_gaussian_gradients(self, rng):
        # L2-norm scaling keeps QSGD levels near zero for Gaussian tensors
        # regardless of bit width, so gamma's short small-integer codes win
        # at every resolution; delta's asymptotic advantage only appears
        # for genuinely large integers (covered in tests/core/test_elias).
        t = rng.normal(size=20000).astype(np.float32)

        def bits_for(b, coding):
            c = QSGDCompressor(bits=b, coding=coding, seed=2)
            return c.make_context(t.shape).compress(t).bits_per_value()

        for b in (2, 8):
            assert bits_for(b, "gamma") <= bits_for(b, "delta")

    def test_legacy_two_scalar_frame_decodes_as_gamma(self, rng):
        from repro.core.packets import CodecId, WireMessage

        t = rng.normal(size=40).astype(np.float32)
        c = QSGDCompressor(bits=2)
        message = c.make_context(t.shape).compress(t).message
        legacy = WireMessage(
            codec_id=CodecId.QSGD,
            shape=message.shape,
            payload=message.payload,
            scalars=message.scalars[:2],
        )
        np.testing.assert_array_equal(c.decompress(legacy), c.decompress(message))

    def test_unknown_coding_rejected(self):
        with pytest.raises(ValueError, match="coding"):
            QSGDCompressor(coding="golomb")

    def test_unknown_coding_id_in_frame_rejected(self, rng):
        from repro.core.packets import CodecId, WireMessage

        t = rng.normal(size=16).astype(np.float32)
        message = QSGDCompressor().make_context(t.shape).compress(t).message
        forged = WireMessage(
            codec_id=CodecId.QSGD,
            shape=message.shape,
            payload=message.payload,
            scalars=(message.scalars[0], message.scalars[1], 9.0),
        )
        with pytest.raises(ValueError, match="coding id"):
            QSGDCompressor().decompress(forged)
