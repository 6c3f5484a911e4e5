"""Tests for the extension schemes: float16 and round-robin."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.float16 import Float16Compressor
from repro.compression.roundrobin import RoundRobinCompressor, partition_bounds


class TestFloat16:
    def test_half_the_bits(self, rng):
        t = rng.normal(size=1000).astype(np.float32)
        result = Float16Compressor().make_context(t.shape).compress(t)
        assert result.bits_per_value() == pytest.approx(16.0, abs=0.5)

    def test_precision_loss_bounded(self, rng):
        t = rng.normal(size=500).astype(np.float32)
        c = Float16Compressor()
        result = c.make_context(t.shape).compress(t)
        # Half precision has ~3 decimal digits.
        np.testing.assert_allclose(result.reconstruction, t, rtol=1e-3)
        np.testing.assert_array_equal(
            c.decompress(result.message), result.reconstruction
        )


class TestPartitionBounds:
    def test_covers_everything_exactly_once(self):
        for size in (0, 1, 7, 20, 23):
            for p in (1, 3, 4, 7):
                covered = []
                for i in range(p):
                    start, end = partition_bounds(size, p, i)
                    covered.extend(range(start, end))
                assert covered == list(range(size)), (size, p)

    def test_balanced(self):
        sizes = [
            partition_bounds(22, 4, i)[1] - partition_bounds(22, 4, i)[0]
            for i in range(4)
        ]
        assert sizes == [6, 6, 5, 5]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_bounds(10, 0, 0)
        with pytest.raises(ValueError):
            partition_bounds(10, 4, 4)

    @given(size=st.integers(0, 1000), p=st.integers(1, 16))
    def test_partition_property(self, size, p):
        total = 0
        prev_end = 0
        for i in range(p):
            start, end = partition_bounds(size, p, i)
            assert start == prev_end
            prev_end = end
            total += end - start
        assert total == size


class TestRoundRobin:
    def test_cycles_partitions(self, rng):
        c = RoundRobinCompressor(4)
        ctx = c.make_context((16,))
        seen_indices = []
        for _ in range(8):
            result = ctx.compress(rng.normal(size=16).astype(np.float32))
            seen_indices.append(int(result.message.scalars[1]))
        assert seen_indices == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_quarter_traffic(self, rng):
        t = rng.normal(size=4000).astype(np.float32)
        c = RoundRobinCompressor(4)
        result = c.make_context(t.shape).compress(t)
        # 1000 float32 values + frame ~= 8 bits/value.
        assert result.bits_per_value() == pytest.approx(8.0, abs=0.5)

    def test_delivery_tracks_input_with_bounded_lag(self, rng):
        """Under a constant input, cumulative delivery equals cumulative
        input up to at most one cycle's worth of lag per element, and the
        residual reaches a steady state (no unbounded accumulation)."""
        p = 4
        c = RoundRobinCompressor(p)
        ctx = c.make_context((21,))
        t = rng.normal(size=21).astype(np.float32)
        total = np.zeros(21, dtype=np.float64)
        norms = []
        for step in range(3 * p):
            total += ctx.compress(t).reconstruction
            if (step + 1) % p == 0:
                norms.append(ctx.residual_norm())
        lag = np.abs(total - 3 * p * t.astype(np.float64))
        assert np.all(lag <= p * np.abs(t) + 1e-4)
        # Residual at cycle boundaries is periodic, not growing.
        assert norms[1] == pytest.approx(norms[2], rel=1e-4)

    def test_decompress_places_partition(self, rng):
        t = rng.normal(size=10).astype(np.float32)
        c = RoundRobinCompressor(2)
        ctx = c.make_context(t.shape)
        result = ctx.compress(t)
        out = c.decompress(result.message)
        np.testing.assert_array_equal(out, result.reconstruction)
        assert np.count_nonzero(out) <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundRobinCompressor(0)
