"""Tests for quartic encoding (paper §3.2)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.quartic import (
    GROUP_SIZE,
    MAX_QUARTIC_BYTE,
    ZERO_GROUP_BYTE,
    padded_length,
    quartic_decode,
    quartic_decode_reference,
    quartic_encode,
    quartic_encode_reference,
)

ternary_arrays = hnp.arrays(
    dtype=np.int8,
    shape=hnp.array_shapes(max_dims=3, max_side=17),
    elements=st.integers(min_value=-1, max_value=1),
)


class TestEncode:
    def test_five_zeros_encode_to_121(self):
        encoded = quartic_encode(np.zeros(5, dtype=np.int8))
        assert encoded.tolist() == [ZERO_GROUP_BYTE]

    def test_all_ones_encode_to_242(self):
        encoded = quartic_encode(np.ones(5, dtype=np.int8))
        assert encoded.tolist() == [MAX_QUARTIC_BYTE]

    def test_all_minus_ones_encode_to_0(self):
        encoded = quartic_encode(-np.ones(5, dtype=np.int8))
        assert encoded.tolist() == [0]

    def test_quartic_form_digit_weights(self):
        # (a,b,c,d,e) = (2,1,0,1,2) -> 2*81 + 27 + 0 + 3 + 2 = 194
        values = np.array([1, 0, -1, 0, 1], dtype=np.int8)
        assert quartic_encode(values).tolist() == [194]

    def test_output_length_is_ceil_div_5(self):
        for n in range(0, 23):
            encoded = quartic_encode(np.zeros(n, dtype=np.int8))
            assert encoded.size == padded_length(n) // GROUP_SIZE

    def test_padding_digits_are_zero_values(self):
        # 6 values: second group is [x, pad, pad, pad, pad]; pads encode as
        # the zero digit so a trailing zero group stays ZRE-compressible.
        encoded = quartic_encode(np.zeros(6, dtype=np.int8))
        assert encoded.tolist() == [ZERO_GROUP_BYTE, ZERO_GROUP_BYTE]

    def test_output_range(self, rng):
        values = rng.integers(-1, 2, size=1000).astype(np.int8)
        encoded = quartic_encode(values)
        assert encoded.dtype == np.uint8
        assert encoded.max() <= MAX_QUARTIC_BYTE

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="values in"):
            quartic_encode(np.array([0, 2], dtype=np.int8))
        with pytest.raises(ValueError, match="values in"):
            quartic_encode(np.array([-2], dtype=np.int8))

    def test_multidimensional_input_flattened_c_order(self):
        values = np.array([[1, 1, 1, 1, 1], [-1, -1, -1, -1, -1]], dtype=np.int8)
        assert quartic_encode(values).tolist() == [MAX_QUARTIC_BYTE, 0]

    def test_empty(self):
        assert quartic_encode(np.zeros(0, dtype=np.int8)).size == 0


class TestDecode:
    def test_roundtrip_exact(self, rng):
        values = rng.integers(-1, 2, size=123).astype(np.int8)
        encoded = quartic_encode(values)
        np.testing.assert_array_equal(quartic_decode(encoded, 123), values)

    def test_length_mismatch_rejected(self):
        encoded = quartic_encode(np.zeros(10, dtype=np.int8))
        with pytest.raises(ValueError, match="inconsistent"):
            quartic_decode(encoded, 11)

    def test_byte_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="quartic range"):
            quartic_decode(np.array([243], dtype=np.uint8), 5)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            quartic_decode(np.zeros(0, dtype=np.uint8), -1)

    def test_empty(self):
        assert quartic_decode(np.zeros(0, dtype=np.uint8), 0).size == 0


class TestProperties:
    @given(values=ternary_arrays)
    def test_roundtrip_property(self, values):
        encoded = quartic_encode(values)
        decoded = quartic_decode(encoded, values.size)
        np.testing.assert_array_equal(decoded, values.reshape(-1))

    @given(values=ternary_arrays)
    def test_vectorized_matches_reference_encoder(self, values):
        np.testing.assert_array_equal(
            quartic_encode(values), quartic_encode_reference(values)
        )

    @given(data=hnp.arrays(dtype=np.uint8, shape=st.integers(0, 40),
                           elements=st.integers(0, MAX_QUARTIC_BYTE)))
    def test_vectorized_matches_reference_decoder(self, data):
        count = data.size * GROUP_SIZE
        np.testing.assert_array_equal(
            quartic_decode(data, count), quartic_decode_reference(data, count)
        )

    @given(values=ternary_arrays)
    def test_space_is_1_point_6_bits(self, values):
        encoded = quartic_encode(values)
        # Exactly one byte per five values (before ZRE), i.e. 1.6 bits/value.
        assert encoded.size == padded_length(values.size) // GROUP_SIZE
