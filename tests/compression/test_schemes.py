"""Scheme-specific behaviour tests."""

import numpy as np
import pytest

from repro.compression import available_schemes, make_compressor
from repro.compression.float32 import Float32Compressor
from repro.compression.int8 import INT8_LEVELS, Int8Compressor
from repro.compression.local_steps import LocalStepsCompressor
from repro.compression.onebit import OneBitCompressor
from repro.compression.stochastic_ternary import StochasticTernaryCompressor
from repro.compression.threelc import ThreeLCCompressor
from repro.compression.topk import TopKCompressor, sampled_threshold


class TestFloat32:
    def test_lossless(self, rng):
        t = rng.normal(size=(7, 9)).astype(np.float32)
        c = Float32Compressor()
        ctx = c.make_context(t.shape)
        result = ctx.compress(t)
        np.testing.assert_array_equal(result.reconstruction, t)
        np.testing.assert_array_equal(c.decompress(result.message), t)

    def test_32_bits_per_value_plus_header(self, rng):
        t = rng.normal(size=(1000,)).astype(np.float32)
        result = Float32Compressor().make_context(t.shape).compress(t)
        assert result.bits_per_value() == pytest.approx(32.0, abs=0.5)


class TestInt8:
    def test_error_bounded_by_half_level(self, rng):
        t = rng.normal(size=500).astype(np.float32)
        result = Int8Compressor().make_context(t.shape).compress(t)
        scale = float(np.max(np.abs(t))) / INT8_LEVELS
        assert float(np.max(np.abs(t - result.reconstruction))) <= scale / 2 + 1e-6

    def test_uses_255_levels(self, rng):
        t = np.linspace(-1, 1, 1000).astype(np.float32)
        result = Int8Compressor().make_context(t.shape).compress(t)
        quantized = np.frombuffer(result.message.payload, dtype=np.int8)
        assert quantized.min() == -INT8_LEVELS
        assert quantized.max() == INT8_LEVELS
        assert -128 not in quantized

    def test_no_error_feedback(self, rng):
        c = Int8Compressor()
        ctx = c.make_context((50,))
        t = rng.normal(size=50).astype(np.float32)
        r1 = ctx.compress(t)
        r2 = ctx.compress(t)
        np.testing.assert_array_equal(r1.reconstruction, r2.reconstruction)


class TestOneBitMQE:
    def test_two_reconstruction_values(self, rng):
        t = rng.normal(size=200).astype(np.float32)
        result = OneBitCompressor().make_context(t.shape).compress(t)
        assert len(np.unique(result.reconstruction)) <= 2

    def test_partition_means_minimize_squared_error(self, rng):
        """The MQE property: within each sign partition the reconstruction
        equals the partition mean, the least-squares-optimal constant."""
        t = rng.normal(size=400).astype(np.float32)
        result = OneBitCompressor().make_context(t.shape).compress(t)
        mean_neg, mean_pos = result.message.scalars
        nonneg = t >= 0
        assert mean_pos == pytest.approx(float(t[nonneg].mean()), rel=1e-5)
        assert mean_neg == pytest.approx(float(t[~nonneg].mean()), rel=1e-5)

    def test_error_feedback_recovers_information(self, rng):
        c = OneBitCompressor()
        ctx = c.make_context((64,))
        t = rng.normal(size=64).astype(np.float32)
        total = np.zeros(64, dtype=np.float64)
        total += ctx.compress(t).reconstruction
        for _ in range(40):
            total += ctx.compress(np.zeros(64, dtype=np.float32)).reconstruction
        # After many flush steps the cumulative transmission approaches t.
        assert float(np.abs(total - t).mean()) < float(np.abs(t).mean()) * 0.35

    def test_all_positive_tensor(self):
        t = np.abs(np.random.default_rng(0).normal(size=30)).astype(np.float32)
        result = OneBitCompressor().make_context(t.shape).compress(t)
        mean_neg, mean_pos = result.message.scalars
        assert mean_neg == 0.0
        assert mean_pos > 0

    def test_payload_is_one_bit_per_value(self):
        t = np.zeros(800, dtype=np.float32)
        result = OneBitCompressor().make_context(t.shape).compress(t)
        assert len(result.message.payload) == 100  # 800 bits


class TestStochasticTernary:
    def test_no_error_feedback_by_design(self, rng):
        c = StochasticTernaryCompressor(seed=3)
        ctx = c.make_context((64,), key=("a",))
        assert ctx.residual_norm() == 0.0
        ctx.compress(rng.normal(size=64).astype(np.float32))
        assert ctx.residual_norm() == 0.0

    def test_reproducible_per_key(self, rng):
        t = rng.normal(size=128).astype(np.float32)
        c = StochasticTernaryCompressor(seed=5)
        r1 = c.make_context(t.shape, key=("k",)).compress(t)
        r2 = c.make_context(t.shape, key=("k",)).compress(t)
        np.testing.assert_array_equal(r1.reconstruction, r2.reconstruction)

    def test_different_keys_differ(self, rng):
        t = rng.normal(size=512).astype(np.float32)
        c = StochasticTernaryCompressor(seed=5)
        r1 = c.make_context(t.shape, key=("k1",)).compress(t)
        r2 = c.make_context(t.shape, key=("k2",)).compress(t)
        assert not np.array_equal(r1.reconstruction, r2.reconstruction)

    def test_quartic_payload_size(self, rng):
        t = rng.normal(size=1000).astype(np.float32)
        c = StochasticTernaryCompressor()
        result = c.make_context(t.shape).compress(t)
        assert len(result.message.payload) == 200  # ceil(1000/5), no ZRE

    # The draw's laws (TernGrad-like, §5.1): sign(t) with probability
    # |t| / max|T|, else 0.

    @staticmethod
    def draws(t, count, seed=0):
        ctx = StochasticTernaryCompressor(seed).make_context(t.shape, key=("laws",))
        return [ctx.compress(t) for _ in range(count)]

    def test_unbiased_in_expectation(self):
        t = np.array([0.5, -0.25, 0.1, 0.0], dtype=np.float32)
        (result,) = self.draws(np.tile(t, 4000), 1)
        mean = result.reconstruction.reshape(4000, 4).mean(axis=0, dtype=np.float64)
        np.testing.assert_allclose(mean, t, atol=0.03)

    def test_zero_stays_zero(self):
        for result in self.draws(np.array([0.0, 0.0, 1.0], dtype=np.float32), 50):
            assert not result.reconstruction[:2].any()

    def test_max_magnitude_always_selected(self):
        for result in self.draws(np.array([0.2, -1.0, 0.1], dtype=np.float32), 50):
            assert result.reconstruction[1] == -1.0  # probability |t|/M = 1

    def test_scale_has_no_sparsity_multiplier(self, rng):
        t = rng.normal(size=100).astype(np.float32)
        (result,) = self.draws(t, 1)
        assert result.message.scalars == (float(np.max(np.abs(t))),)

    def test_zero_tensor(self):
        (result,) = self.draws(np.zeros(5, dtype=np.float32), 1)
        assert result.message.scalars == (0.0,)
        assert not result.reconstruction.any()

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            self.draws(np.array([np.nan], dtype=np.float32), 1)

    def test_same_draws_for_one_seed(self):
        t = np.linspace(-1, 1, 50).astype(np.float32)
        (a,), (b,) = self.draws(t, 1, seed=7), self.draws(t, 1, seed=7)
        assert a.message.payload == b.message.payload
        np.testing.assert_array_equal(a.reconstruction, b.reconstruction)


class TestTopK:
    def test_selects_approximately_target_fraction(self, rng):
        t = rng.normal(size=20000).astype(np.float32)
        c = TopKCompressor(0.25, seed=1)
        result = c.make_context(t.shape).compress(t)
        selected = np.count_nonzero(result.reconstruction)
        assert 0.15 <= selected / t.size <= 0.40

    def test_keeps_largest_magnitudes(self, rng):
        t = rng.normal(size=5000).astype(np.float32)
        c = TopKCompressor(0.05, seed=1)
        result = c.make_context(t.shape).compress(t)
        sent = result.reconstruction != 0
        if sent.any() and (~sent).any():
            assert np.abs(t[sent]).min() >= np.abs(t[~sent]).max() * 0.5

    def test_transmitted_values_exact(self, rng):
        t = rng.normal(size=1000).astype(np.float32)
        c = TopKCompressor(0.25, seed=1)
        result = c.make_context(t.shape).compress(t)
        sent = result.reconstruction != 0
        np.testing.assert_array_equal(result.reconstruction[sent], t[sent])

    def test_unsent_accumulates(self, rng):
        c = TopKCompressor(0.05, seed=1)
        ctx = c.make_context((1000,))
        ctx.compress(rng.normal(size=1000).astype(np.float32))
        assert ctx.residual_norm() > 0

    def test_bitmap_plus_values_wire_format(self, rng):
        t = rng.normal(size=800).astype(np.float32)
        c = TopKCompressor(0.25, seed=1)
        result = c.make_context(t.shape).compress(t)
        selected = int(np.count_nonzero(result.reconstruction))
        assert len(result.message.payload) == 100 + 4 * selected

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            TopKCompressor(0.0)
        with pytest.raises(ValueError):
            TopKCompressor(1.5)

    def test_zero_tensor_sends_nothing(self):
        c = TopKCompressor(0.25, seed=1)
        result = c.make_context((100,)).compress(np.zeros(100, dtype=np.float32))
        assert not result.reconstruction.any()
        assert len(result.message.payload) == 13  # bitmap only


class TestSampledThreshold:
    def test_exact_on_small_input(self, rng):
        values = np.abs(rng.normal(size=100))
        threshold = sampled_threshold(values, 0.25, rng)
        kept = np.count_nonzero(values >= threshold)
        assert 20 <= kept <= 35

    def test_full_fraction_keeps_everything(self, rng):
        values = np.abs(rng.normal(size=50))
        threshold = sampled_threshold(values, 1.0, rng)
        assert np.count_nonzero(values >= threshold) == 50

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            sampled_threshold(np.ones(5), 0.0, rng)

    def test_empty_input(self, rng):
        assert sampled_threshold(np.zeros(0), 0.5, rng) == 0.0


class TestLocalSteps:
    def test_transmits_every_period(self, rng):
        c = LocalStepsCompressor(period=3)
        ctx = c.make_context((8,))
        pattern = [
            ctx.compress(rng.normal(size=8).astype(np.float32)) is not None
            for _ in range(9)
        ]
        assert pattern == [False, False, True] * 3

    def test_accumulated_updates_delivered(self, rng):
        c = LocalStepsCompressor(period=2)
        ctx = c.make_context((16,))
        t1 = rng.normal(size=16).astype(np.float32)
        t2 = rng.normal(size=16).astype(np.float32)
        assert ctx.compress(t1) is None
        result = ctx.compress(t2)
        # Inner codec is lossless float32: the sum arrives exactly.
        np.testing.assert_allclose(result.reconstruction, t1 + t2, atol=1e-6)

    def test_period_one_always_transmits(self, rng):
        ctx = LocalStepsCompressor(period=1).make_context((4,))
        assert ctx.compress(np.ones(4, dtype=np.float32)) is not None

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            LocalStepsCompressor(period=0)


class TestThreeLCCompressorAdapter:
    def test_name_encodes_multiplier(self):
        assert ThreeLCCompressor(1.75).name == "3LC (s=1.75)"
        assert "no ZRE" in ThreeLCCompressor(1.0, use_zre=False).name

    def test_error_feedback_togglable(self, rng):
        t = rng.normal(size=64).astype(np.float32)
        with_ef = ThreeLCCompressor(1.9).make_context(t.shape)
        without = ThreeLCCompressor(1.9, error_feedback=False).make_context(t.shape)
        with_ef.compress(t)
        without.compress(t)
        assert with_ef.residual_norm() > 0
        assert without.residual_norm() == 0.0


#: Registry schemes that carry a NaN or an infinity to the receiver as it
#: is, with the reason; every other scheme must refuse one.
PASS_THROUGH = {
    "32-bit float": "lossless and stateless: the receiver decodes the value",
}


# Below the threshold sample, either side of its 4096 entries, and above.
@pytest.mark.parametrize("size", [64, 4096, 4097, 10_000])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", available_schemes())
def test_non_finite_input_is_refused_or_passed_through(name, bad, size):
    for position in (0, size // 2, size - 1):
        scheme = make_compressor(name)
        context = scheme.make_context((size,), key=("push", 0))
        tensor = np.full(size, 0.01, dtype=np.float32)
        tensor[position] = bad
        if name in PASS_THROUGH:
            decoded = scheme.decompress(context.compress(tensor).message)
            assert not np.isfinite(decoded[position]), position
            continue
        with pytest.raises(ValueError, match="non-finite tensor"):
            context.compress(tensor)
