"""Tests for 3-value quantization with sparsity multiplication (paper §3.1)."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.codec import ThreeLCCodec
from repro.core.quantization import quantize_3value

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)
tensors = hnp.arrays(
    dtype=np.float32, shape=hnp.array_shapes(max_dims=3, max_side=16), elements=finite_floats
)
multipliers = st.floats(min_value=1.0, max_value=1.999)


class TestQuantize3Value:
    def test_known_example_from_paper_figure3(self):
        # Figure 3's accumulated tensor with M = 0.3 (s = 1).
        tensor = np.array(
            [
                [-0.3, 0.1, -0.4, 0.0],
                [-0.2, 0.0, -0.2, -0.1],
                [0.1, -0.4, 0.1, 0.3],
                [0.0, 0.3, -0.2, 0.0],
            ],
            dtype=np.float32,
        )
        # Figure 3 shows M printed as 0.3 but the max is 0.4; use the real max.
        q = quantize_3value(tensor, 1.0)
        assert q.scale == pytest.approx(0.4)
        assert set(np.unique(q.values)) <= {-1, 0, 1}
        # Entries with |t| > M/2 = 0.2 quantize to ±1.
        assert q.values[0, 2] == -1  # -0.4
        assert q.values[2, 3] == 1  # 0.3
        assert q.values[0, 1] == 0  # 0.1

    def test_values_are_ternary_int8(self, rng):
        q = quantize_3value(rng.normal(size=(5, 7)).astype(np.float32), 1.5)
        assert q.values.dtype == np.int8
        assert set(np.unique(q.values)) <= {-1, 0, 1}

    def test_scale_is_max_magnitude_times_s(self, rng):
        t = rng.normal(size=100).astype(np.float32)
        for s in (1.0, 1.25, 1.9):
            q = quantize_3value(t, s)
            assert q.scale == pytest.approx(float(np.max(np.abs(t))) * s, rel=1e-6)

    def test_zero_tensor(self):
        q = quantize_3value(np.zeros((3, 3), dtype=np.float32), 1.5)
        assert q.scale == 0.0
        assert not q.values.any()
        assert (q.values * q.scale).sum() == 0.0

    def test_empty_tensor(self):
        q = quantize_3value(np.zeros((0,), dtype=np.float32))
        assert q.scale == 0.0
        assert q.values.shape == (0,)

    def test_shape_preserved(self, rng):
        t = rng.normal(size=(2, 3, 4)).astype(np.float32)
        assert quantize_3value(t).values.shape == (2, 3, 4)

    @pytest.mark.parametrize("s", [0.5, 0.99, 2.0, 2.5, -1.0, float("nan")])
    def test_invalid_multiplier_rejected(self, s):
        message = re.escape(f"sparsity multiplier must satisfy 1 <= s < 2, got {s!r}")
        with pytest.raises(ValueError, match=message):
            quantize_3value(np.ones(3, dtype=np.float32), s)
        with pytest.raises(ValueError, match=message):
            ThreeLCCodec(s)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_3value(np.array([1.0, np.nan], dtype=np.float32))

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_3value(np.array([1.0, np.inf], dtype=np.float32))

    def test_larger_s_never_less_sparse(self, rng):
        t = rng.normal(size=1000).astype(np.float32)
        zeros = [
            np.count_nonzero(quantize_3value(t, s).values == 0)
            for s in (1.0, 1.3, 1.6, 1.9)
        ]
        assert zeros == sorted(zeros)

    def test_s_close_to_2_zeroes_all_but_extremes(self, rng):
        t = rng.uniform(-1, 1, size=1000).astype(np.float32)
        q = quantize_3value(t, 1.99)
        # Only entries with |t| >= M/2 ≈ 0.995 * max survive.
        surviving = np.abs(t) >= q.scale / 2
        np.testing.assert_array_equal(q.values != 0, surviving)

    @given(tensor=tensors, s=multipliers)
    def test_error_bound_holds(self, tensor, s):
        """Paper §3.1 convergence bound: max|T - out| <= M/2 < max|T|."""
        q = quantize_3value(tensor, s)
        out = q.values * q.scale  # float64
        err = np.max(np.abs(tensor.astype(np.float64) - out)) if tensor.size else 0.0
        assert err <= q.scale / 2 + 1e-4 * max(1.0, q.scale)
        if q.scale > 0:
            assert q.scale / 2 < float(np.max(np.abs(tensor))) + 1e-9

    @given(tensor=tensors, s=multipliers)
    def test_ternary_output_property(self, tensor, s):
        q = quantize_3value(tensor, s)
        assert q.values.shape == tensor.shape
        if tensor.size:
            assert int(q.values.min()) >= -1
            assert int(q.values.max()) <= 1

    def test_dequantize_roundtrip_signs(self, rng):
        t = rng.normal(size=500).astype(np.float32)
        q = quantize_3value(t, 1.0)
        out = q.values * q.scale
        nonzero = q.values != 0
        np.testing.assert_array_equal(np.sign(out[nonzero]), np.sign(t[nonzero]))
