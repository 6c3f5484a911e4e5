"""Tests for the Deep Gradient Compression baseline."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.dgc import DGCCompressor, WarmupSchedule
from repro.core.packets import CodecId, WireMessage


class TestWarmupSchedule:
    def test_endpoints(self):
        sched = WarmupSchedule(0.25, 0.001, 100)
        assert sched.fraction_at(0) == pytest.approx(0.25)
        assert sched.fraction_at(100) == pytest.approx(0.001)
        assert sched.fraction_at(10**6) == pytest.approx(0.001)

    def test_monotone_decay(self):
        sched = WarmupSchedule(0.25, 0.001, 50)
        fractions = [sched.fraction_at(s) for s in range(60)]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_geometric_midpoint(self):
        sched = WarmupSchedule(0.25, 0.0025, 100)
        # Exponential ramp: halfway in steps is the geometric mean.
        expected = (0.25 * 0.0025) ** 0.5
        assert sched.fraction_at(50) == pytest.approx(expected)

    def test_zero_warmup(self):
        sched = WarmupSchedule(0.25, 0.001, 0)
        assert sched.fraction_at(0) == pytest.approx(0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupSchedule(0.001, 0.25, 10)  # initial < final
        with pytest.raises(ValueError):
            WarmupSchedule(0.25, 0.0, 10)  # zero final
        with pytest.raises(ValueError):
            WarmupSchedule(0.25, 0.001, -1)
        with pytest.raises(ValueError):
            WarmupSchedule(0.25, 0.001, 10).fraction_at(-1)


class TestDGC:
    def test_post_warmup_traffic_is_tiny(self, rng):
        t = rng.normal(size=20000).astype(np.float32)
        ctx = DGCCompressor(0.001, momentum=0.0, warmup_steps=0).make_context(t.shape)
        result = ctx.compress(t)
        # ~0.1% of 20000 = 20 entries at 8 bytes each, plus the frame.
        assert result.wire_size < 400

    def test_warmup_sends_densely_then_sparsifies(self, rng):
        t = rng.normal(size=4000).astype(np.float32)
        ctx = DGCCompressor(
            0.001, momentum=0.0, warmup_steps=20, initial_fraction=0.25
        ).make_context(t.shape)
        first = ctx.compress(t).wire_size
        for _ in range(25):
            last = ctx.compress(rng.normal(size=4000).astype(np.float32)).wire_size
        assert first > 10 * last

    def test_sparse_step_leaves_most_mass_in_velocity(self, rng):
        g = rng.normal(size=1000).astype(np.float32)
        ctx = DGCCompressor(0.001, momentum=0.9, warmup_steps=0).make_context(
            g.shape, key=("push", 0, "w")
        )
        ctx.compress(g)
        # Only ~1/1000 entries were sent; nearly all L2 mass stays local.
        norm = float(np.linalg.norm(g))
        assert 0.8 * norm < ctx.residual_norm() <= norm

    def test_momentum_correction_amplifies_persistent_gradients(self, rng):
        # A direction that keeps appearing builds velocity u=(1-m^t)/(1-m)·g;
        # with momentum correction its transmitted value exceeds the plain
        # top-k accumulation of the same inputs.
        g = rng.normal(size=500).astype(np.float32)
        with_m = DGCCompressor(0.01, momentum=0.9, warmup_steps=0).make_context(
            g.shape, key=("push", 0, "w")
        )
        without_m = DGCCompressor(0.01, momentum=0.0, warmup_steps=0).make_context(
            g.shape, key=("push", 0, "w")
        )
        for _ in range(5):
            last_m = with_m.compress(g)
            last_plain = without_m.compress(g)
        assert np.max(np.abs(last_m.reconstruction)) > np.max(
            np.abs(last_plain.reconstruction)
        )

    def test_momentum_factor_masking(self, rng):
        # Transmitted coordinates must restart both accumulators: compress a
        # spike, then verify the spike coordinate carries no velocity.
        t = np.zeros(1000, dtype=np.float32)
        t[7] = 100.0
        ctx = DGCCompressor(0.001, momentum=0.9, warmup_steps=0).make_context(t.shape)
        result = ctx.compress(t)
        assert result.reconstruction[7] == pytest.approx(100.0)
        # Second step with zero input: coordinate 7 must stay silent (its
        # momentum was masked), so nothing significant is transmitted.
        result2 = ctx.compress(np.zeros(1000, dtype=np.float32))
        assert result2.reconstruction[7] == pytest.approx(0.0)

    def test_unsent_mass_is_conserved(self, rng):
        # momentum=0 reduces DGC to top-k: input = transmitted + residual.
        t = rng.normal(size=2000).astype(np.float32)
        ctx = DGCCompressor(0.01, momentum=0.0, warmup_steps=0).make_context(t.shape)
        result = ctx.compress(t)
        residual = t - result.reconstruction
        assert ctx.residual_norm() == pytest.approx(
            float(np.linalg.norm(residual)), rel=1e-5
        )

    def test_gradient_clipping(self):
        t = np.full(100, 10.0, dtype=np.float32)  # norm 100
        ctx = DGCCompressor(
            1.0, momentum=0.0, warmup_steps=0, initial_fraction=1.0, clip_norm=1.0
        ).make_context(t.shape)
        result = ctx.compress(t)
        # Everything transmitted (fraction 1.0) but clipped to norm 1.
        assert float(np.linalg.norm(result.reconstruction)) == pytest.approx(
            1.0, rel=1e-5
        )

    def test_pull_contexts_drop_momentum(self):
        c = DGCCompressor(0.01, momentum=0.9, warmup_steps=0)
        push = c.make_context((10,), key=("push", 0, "w"))
        pull = c.make_context((10,), key=("pull", "w"))
        assert push.momentum == pytest.approx(0.9)
        assert pull.momentum == 0.0

    def test_index_out_of_range_detected(self):
        payload = np.array([5000], dtype="<u4").tobytes()
        payload += np.array([1.0], dtype="<f4").tobytes()
        bad = WireMessage(codec_id=CodecId.DGC_SPARSE, shape=(10,), payload=payload)
        with pytest.raises(ValueError, match="range"):
            DGCCompressor().decompress(bad)

    def test_ragged_payload_detected(self):
        bad = WireMessage(codec_id=CodecId.DGC_SPARSE, shape=(10,), payload=b"abc")
        with pytest.raises(ValueError, match="multiple of 8"):
            DGCCompressor().decompress(bad)

    def test_rejects_foreign_message(self):
        bad = WireMessage(codec_id=CodecId.FLOAT32, shape=(4,), payload=b"")
        with pytest.raises(ValueError, match="DGC"):
            DGCCompressor().decompress(bad)

    def test_validation(self):
        with pytest.raises(ValueError, match="momentum"):
            DGCCompressor(momentum=1.0)
        with pytest.raises(ValueError):
            DGCCompressor(fraction=0.0)

    @given(st.integers(min_value=1, max_value=300), st.floats(0.01, 1.0))
    def test_roundtrip_property(self, size, fraction):
        rng = np.random.default_rng(size)
        t = rng.normal(size=size).astype(np.float32)
        c = DGCCompressor(fraction, momentum=0.0, warmup_steps=0)
        result = c.make_context(t.shape).compress(t)
        decoded = c.decompress(result.message)
        np.testing.assert_array_equal(decoded, result.reconstruction)
        # Transmitted entries are exact copies of the (velocity) input.
        sent = decoded != 0
        np.testing.assert_allclose(decoded[sent], t[sent], rtol=1e-6)
