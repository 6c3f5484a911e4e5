"""Tests for the Gaia-style significance filter."""

import numpy as np
import pytest

from repro.compression.gaia import GaiaCompressor
from repro.core.packets import CodecId, WireMessage


class TestThresholdDecay:
    def test_linear_decay_endpoints(self):
        ctx = GaiaCompressor(2.0, 0.5, decay_steps=100).make_context((4,))
        assert ctx.threshold_at(0) == pytest.approx(2.0)
        assert ctx.threshold_at(50) == pytest.approx(1.25)
        assert ctx.threshold_at(100) == pytest.approx(0.5)
        assert ctx.threshold_at(10**6) == pytest.approx(0.5)

    def test_zero_decay_steps(self):
        ctx = GaiaCompressor(2.0, 0.5, decay_steps=0).make_context((4,))
        assert ctx.threshold_at(0) == pytest.approx(0.5)


class TestGaia:
    def test_empty_tensor_keeps_a_zero_rms(self):
        ctx = GaiaCompressor().make_context((0,))
        for _ in range(3):
            ctx.compress(np.zeros((0,), dtype=np.float32))
        assert ctx.state_dict()["rms"] == 0.0

    def test_significant_values_pass_insignificant_accumulate(self, rng):
        t = rng.normal(0, 0.01, size=1000).astype(np.float32)
        t[3] = 5.0  # hugely significant relative to the rest
        ctx = GaiaCompressor(2.0, 2.0, decay_steps=0).make_context(t.shape)
        result = ctx.compress(t)
        assert result.reconstruction[3] == pytest.approx(5.0)
        # Most of the small values stayed local.
        sent = int(np.count_nonzero(result.reconstruction))
        assert sent < 200
        assert ctx.residual_norm() > 0

    def test_unsent_mass_conserved(self, rng):
        t = rng.normal(size=500).astype(np.float32)
        ctx = GaiaCompressor().make_context(t.shape)
        result = ctx.compress(t)
        residual = t - result.reconstruction
        assert ctx.residual_norm() == pytest.approx(
            float(np.linalg.norm(residual)), rel=1e-5
        )

    def test_accumulated_changes_eventually_cross_threshold(self):
        # Gaia's error accumulation: a sub-threshold change repeated long
        # enough becomes significant and is transmitted.
        t = np.full(64, 0.05, dtype=np.float32)
        t[0] = 1.0  # establishes a nonzero significance scale
        ctx = GaiaCompressor(2.0, 2.0, decay_steps=0).make_context(t.shape)
        sent_small = 0.0
        for _ in range(60):
            result = ctx.compress(t)
            sent_small += float(result.reconstruction[5])
            t = np.full(64, 0.05, dtype=np.float32)  # steady small updates
        assert sent_small > 0.5  # the small coordinate did get through

    def test_decaying_threshold_sends_more_later(self, rng):
        # The Gaia behaviour the paper contrasts with (§6): traffic grows as
        # the threshold decays, even for a stationary update distribution.
        ctx = GaiaCompressor(4.0, 0.25, decay_steps=40).make_context((2000,))
        early = ctx.compress(rng.normal(size=2000).astype(np.float32)).wire_size
        for _ in range(45):
            last = ctx.compress(rng.normal(size=2000).astype(np.float32)).wire_size
        assert last > early

    def test_validation(self):
        with pytest.raises(ValueError, match="initial_threshold"):
            GaiaCompressor(0.5, 2.0)
        with pytest.raises(ValueError, match=">= 0"):
            GaiaCompressor(2.0, -0.5)
        with pytest.raises(ValueError, match="decay_steps"):
            GaiaCompressor(decay_steps=-5)

    def test_rejects_foreign_message(self):
        bad = WireMessage(codec_id=CodecId.FLOAT32, shape=(4,), payload=b"")
        with pytest.raises(ValueError, match="GAIA_SPARSE"):
            GaiaCompressor().decompress(bad)

    def test_value_count_mismatch_detected(self):
        # Bitmap says 2 selected, payload carries 1 value.
        bitmap = np.packbits(np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
        payload = bitmap.tobytes() + np.array([1.0], dtype="<f4").tobytes()
        bad = WireMessage(codec_id=CodecId.GAIA_SPARSE, shape=(8,), payload=payload)
        with pytest.raises(ValueError, match="mismatch"):
            GaiaCompressor().decompress(bad)
