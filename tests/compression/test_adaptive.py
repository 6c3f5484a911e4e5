"""Tests for the adaptive sparsity-multiplier controller."""

import numpy as np
import pytest

from repro.compression.adaptive import S_MAX, S_MIN, AdaptiveThreeLCCompressor
from repro.compression.threelc import ThreeLCCompressor


def _stream(rng, shape, scale=0.1):
    while True:
        yield rng.normal(0, scale, size=shape).astype(np.float32)


class TestController:
    def test_tracks_target_on_stationary_input(self, rng):
        target = 0.5
        c = AdaptiveThreeLCCompressor(target, gain=0.05)
        shape = (4000,)
        ctx = c.make_context(shape)
        stream = _stream(rng, shape)
        for _ in range(60):
            ctx.compress(next(stream))
        tail = [bits for _, bits in ctx.history[-20:]]
        assert np.mean(tail) == pytest.approx(target, abs=0.15)

    def test_s_stays_in_bounds(self, rng):
        # An unreachable target (0.01 bits) drives s to the clamp, never past.
        c = AdaptiveThreeLCCompressor(0.01, gain=0.5)
        ctx = c.make_context((1000,))
        stream = _stream(rng, (1000,))
        for _ in range(30):
            ctx.compress(next(stream))
            assert S_MIN <= ctx.sparsity_multiplier <= S_MAX

    def test_dense_demand_drives_s_down(self, rng):
        # A generous budget (1.5 bits) keeps s at the minimum: no need to
        # sparsify when the link affords near-quartic-encoding rates.
        c = AdaptiveThreeLCCompressor(1.7, gain=0.2, initial_s=1.9)
        ctx = c.make_context((4000,))
        stream = _stream(rng, (4000,))
        for _ in range(40):
            ctx.compress(next(stream))
        assert ctx.sparsity_multiplier < 1.2

    def test_history_records_s_and_bits(self, rng):
        c = AdaptiveThreeLCCompressor(0.5)
        ctx = c.make_context((100,))
        ctx.compress(rng.normal(size=100).astype(np.float32))
        assert len(ctx.history) == 1
        s_used, bits = ctx.history[0]
        assert s_used == pytest.approx(c.initial_s)
        assert bits > 0

    def test_error_feedback_survives_s_changes(self, rng):
        # The residual buffer is shared across codec swaps: the total applied
        # update over time approaches the total input (error correction).
        shape = (512,)
        c = AdaptiveThreeLCCompressor(0.5, gain=0.1)
        ctx = c.make_context(shape)
        total_in = np.zeros(shape, dtype=np.float64)
        total_out = np.zeros(shape, dtype=np.float64)
        stream = _stream(rng, shape)
        for _ in range(50):
            t = next(stream)
            total_in += t
            total_out += ctx.compress(t).reconstruction
        drift = np.linalg.norm(total_in - total_out)
        assert drift == pytest.approx(ctx.residual_norm(), rel=1e-3)

    def test_decompress_is_plain_threelc(self, rng):
        t = rng.normal(size=200).astype(np.float32)
        c = AdaptiveThreeLCCompressor(0.5)
        result = c.make_context(t.shape).compress(t)
        # A stock 3LC decoder reads adaptive frames unchanged.
        np.testing.assert_array_equal(
            ThreeLCCompressor(1.0).decompress(result.message), result.reconstruction
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="target_bits"):
            AdaptiveThreeLCCompressor(0.0)
        with pytest.raises(ValueError, match="gain"):
            AdaptiveThreeLCCompressor(0.5, gain=-1.0)
        with pytest.raises(ValueError, match="initial_s"):
            AdaptiveThreeLCCompressor(0.5, initial_s=2.5)
