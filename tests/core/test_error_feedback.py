"""Tests for error accumulation buffers (paper §3.1, Figure 3)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.error_feedback import ErrorAccumulationBuffer
from repro.core.quantization import quantize_3value


class TestBufferBasics:
    def test_starts_zero(self):
        buf = ErrorAccumulationBuffer((3, 4))
        assert buf.shape == (3, 4)
        assert not buf.residual.any()

    def test_accumulate_returns_a_read_only_view_of_the_sum(self):
        buf = ErrorAccumulationBuffer((2,))
        out = buf.accumulate(np.array([1.0, 2.0], dtype=np.float32))
        np.testing.assert_array_equal(out, [1.0, 2.0])
        with pytest.raises(ValueError):
            out[0] = 99.0  # a lossy stage that must write takes a copy
        assert np.shares_memory(out, buf.residual)

    def test_subtract_records_residual(self):
        buf = ErrorAccumulationBuffer((2,))
        buf.accumulate(np.array([1.0, 2.0], dtype=np.float32))
        buf.subtract(np.array([0.75, 2.5], dtype=np.float32))
        np.testing.assert_allclose(buf.residual, [0.25, -0.5])

    def test_residual_is_read_only(self):
        buf = ErrorAccumulationBuffer((2,))
        with pytest.raises(ValueError):
            buf.residual[0] = 1.0

    def test_shape_mismatch_rejected(self):
        buf = ErrorAccumulationBuffer((2, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            buf.accumulate(np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="shape mismatch"):
            buf.subtract(np.zeros((3, 3), dtype=np.float32))

    def test_reset(self):
        buf = ErrorAccumulationBuffer((2,))
        buf.accumulate(np.ones(2, dtype=np.float32))
        buf.reset()
        assert not buf.residual.any()
        assert buf.l2_norm() == 0.0

    def test_l2_norm(self):
        buf = ErrorAccumulationBuffer((2,))
        buf.accumulate(np.array([3.0, 4.0], dtype=np.float32))
        assert buf.l2_norm() == pytest.approx(5.0)


class TestErrorCorrectionSemantics:
    def test_accumulated_error_is_eventually_transmitted(self):
        """A constant small input below the quantization threshold must
        still get through via accumulation (the core claim of §3.1)."""
        buf = ErrorAccumulationBuffer((1,))
        constant = np.array([0.3], dtype=np.float32)
        transmitted = 0.0
        for _ in range(10):
            corrected = buf.accumulate(constant)
            q = quantize_3value(corrected, 1.0)
            recon = q.values * q.scale
            buf.subtract(recon)
            transmitted += float(recon[0])
        # Ten steps of 0.3 = 3.0 total; all of it must have been sent
        # (single-element tensors quantize exactly).
        assert transmitted == pytest.approx(3.0, abs=1e-5)

    def test_residual_stays_bounded_under_quantization(self, rng):
        """Residual never exceeds M/2 of the corrected tensor, so error
        feedback cannot diverge."""
        buf = ErrorAccumulationBuffer((64,))
        for _ in range(100):
            t = rng.normal(0, 0.1, 64).astype(np.float32)
            corrected = buf.accumulate(t)
            q = quantize_3value(corrected, 1.9)
            buf.subtract(q.values * q.scale)
            if q.scale > 0:
                assert float(np.abs(buf.residual).max()) <= q.scale / 2 + 1e-5

    @given(seed=st.integers(0, 2**16))
    def test_telescoping_identity(self, seed):
        """sum(inputs) == sum(reconstructions) + final residual, exactly
        the invariant that makes error feedback unbiased over time."""
        rng = np.random.default_rng(seed)
        buf = ErrorAccumulationBuffer((16,))
        total_in = np.zeros(16, dtype=np.float64)
        total_out = np.zeros(16, dtype=np.float64)
        for _ in range(20):
            t = rng.normal(0, 1, 16).astype(np.float32)
            total_in += t
            corrected = buf.accumulate(t)
            q = quantize_3value(corrected, 1.5)
            recon = q.values * q.scale
            buf.subtract(recon)
            total_out += recon
        np.testing.assert_allclose(
            total_in, total_out + buf.residual, atol=1e-3
        )
