"""Tests for Elias gamma coding (the QSGD/§6 entropy-coding comparator)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.elias import (
    elias_delta_encode,
    elias_gamma_decode,
    elias_gamma_encode,
)


class TestRoundTrip:
    def test_small_values(self):
        values = np.arange(1, 100, dtype=np.int64)
        decoded = elias_gamma_decode(elias_gamma_encode(values), values.size)
        np.testing.assert_array_equal(decoded.astype(np.int64), values)

    def test_single_value_one(self):
        # 1 is the shortest codeword: the single bit '1'.
        stream = elias_gamma_encode(np.array([1], dtype=np.int64))
        assert stream == b"\x80"
        assert elias_gamma_decode(stream, 1)[0] == 1

    def test_powers_of_two(self):
        values = (np.int64(1) << np.arange(40)).astype(np.int64)
        decoded = elias_gamma_decode(elias_gamma_encode(values), values.size)
        np.testing.assert_array_equal(decoded.astype(np.int64), values)

    def test_empty(self):
        assert elias_gamma_encode(np.zeros(0, dtype=np.int64)) == b""
        assert elias_gamma_decode(b"", 0).size == 0

    @given(
        st.lists(st.integers(min_value=1, max_value=2**32), min_size=1, max_size=200)
    )
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        decoded = elias_gamma_decode(elias_gamma_encode(arr), arr.size)
        np.testing.assert_array_equal(decoded.astype(np.int64), arr)


class TestBitLength:
    def test_skewed_input_beats_fixed_width(self):
        # A 99%-ones stream costs close to 1 bit/value — the property QSGD
        # exploits for near-sparse gradients.
        values = np.ones(1000, dtype=np.int64)
        values[::100] = 7
        bits = 8 * len(elias_gamma_encode(values))
        assert bits / values.size < 1.1


class TestValidation:
    def test_zero_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            elias_gamma_encode(np.array([0], dtype=np.int64))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            elias_gamma_encode(np.array([3, -1], dtype=np.int64))

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="integer"):
            elias_gamma_encode(np.array([1.5]))

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            elias_gamma_encode(np.ones((2, 2), dtype=np.int64))

    def test_truncated_stream(self):
        stream = elias_gamma_encode(np.array([100, 100], dtype=np.int64))
        with pytest.raises(ValueError, match="truncated|exhausted"):
            elias_gamma_decode(stream[:1], 2)

    def test_count_beyond_stream(self):
        stream = elias_gamma_encode(np.array([1], dtype=np.int64))
        with pytest.raises(ValueError, match="exhausted"):
            elias_gamma_decode(stream, 20)

    def test_negative_count(self):
        with pytest.raises(ValueError, match=">= 0"):
            elias_gamma_decode(b"", -1)


@pytest.mark.parametrize("code", ["gamma", "delta"])
@pytest.mark.parametrize("extra", [1, 4])
def test_whole_bytes_after_the_last_codeword_are_refused(code, extra):
    from repro.core import elias

    encode = getattr(elias, f"elias_{code}_encode")
    decode = getattr(elias, f"elias_{code}_decode")
    values = np.array([3, 1, 9], dtype=np.int64)
    stream = encode(values)
    # The final byte's zero padding is part of the stream; a byte more is not.
    np.testing.assert_array_equal(decode(stream, 3).astype(np.int64), values)
    with pytest.raises(ValueError, match=f"{code} stream has {extra} extra byte"):
        decode(stream + b"\x00" * extra, 3)
    with pytest.raises(ValueError, match=f"has {extra} extra byte"):
        decode(b"\x80" * extra, 0)


class TestDelta:
    """Elias delta: gamma-coded length + raw low bits."""

    def test_roundtrip_small(self):
        from repro.core.elias import elias_delta_decode, elias_delta_encode

        values = np.arange(1, 500, dtype=np.int64)
        decoded = elias_delta_decode(elias_delta_encode(values), values.size)
        np.testing.assert_array_equal(decoded.astype(np.int64), values)

    def test_delta_beats_gamma_on_large_values(self):
        large = np.full(50, 10**9, dtype=np.int64)
        assert len(elias_delta_encode(large)) < len(elias_gamma_encode(large))

    def test_gamma_matches_delta_on_ones(self):
        ones = np.ones(64, dtype=np.int64)
        assert len(elias_delta_encode(ones)) == len(elias_gamma_encode(ones)) == 8

    def test_gamma_beats_delta_on_quantization_levels(self):
        # Ternary-like levels (mostly 1, some 2): gamma's practical niche.
        levels = np.ones(1000, dtype=np.int64)
        levels[::7] = 2
        assert len(elias_gamma_encode(levels)) <= len(elias_delta_encode(levels))

    @given(
        st.lists(st.integers(min_value=1, max_value=2**40), min_size=1, max_size=150)
    )
    def test_roundtrip_property(self, values):
        from repro.core.elias import elias_delta_decode, elias_delta_encode

        arr = np.array(values, dtype=np.int64)
        decoded = elias_delta_decode(elias_delta_encode(arr), arr.size)
        np.testing.assert_array_equal(decoded.astype(np.int64), arr)

    def test_truncation_detected(self):
        from repro.core.elias import elias_delta_decode, elias_delta_encode

        stream = elias_delta_encode(np.array([1000, 1000], dtype=np.int64))
        with pytest.raises(ValueError, match="truncated|exhausted"):
            elias_delta_decode(stream[:1], 2)

    def test_zero_rejected(self):
        from repro.core.elias import elias_delta_encode

        with pytest.raises(ValueError, match=">= 1"):
            elias_delta_encode(np.array([0], dtype=np.int64))

    def test_empty(self):
        from repro.core.elias import elias_delta_decode, elias_delta_encode

        assert elias_delta_encode(np.zeros(0, dtype=np.int64)) == b""
        assert elias_delta_decode(b"", 0).size == 0
