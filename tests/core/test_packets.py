"""Tests for the wire format (frame pack/unpack, integrity checks)."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.packets import MAGIC, CodecId, WireMessage


def make_message(**overrides):
    defaults = dict(
        codec_id=CodecId.THREELC,
        shape=(3, 4),
        payload=b"\x01\x02\x03",
        scalars=(0.25,),
        dtype=np.float32,
    )
    defaults.update(overrides)
    return WireMessage(**defaults)


#: Frame bytes that name no codec: the retired ids and every unused one.
UNASSIGNED_CODEC_BYTES = sorted(set(range(256)) - {c.value for c in CodecId})


def with_codec_byte(frame: bytes, codec_byte: int) -> bytes:
    """``frame`` with its codec id byte replaced and its CRC re-signed."""
    data = bytearray(frame)
    data[5] = codec_byte
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
    return bytes(data)


class TestWireMessage:
    def test_roundtrip(self):
        msg = make_message()
        again = WireMessage.unpack(msg.pack())
        assert again == msg

    def test_roundtrip_empty_payload(self):
        msg = make_message(payload=b"", shape=())
        assert WireMessage.unpack(msg.pack()) == msg

    def test_roundtrip_many_scalars(self):
        msg = make_message(scalars=tuple(float(i) for i in range(10)))
        assert WireMessage.unpack(msg.pack()) == msg

    def test_element_count(self):
        assert make_message(shape=(3, 4)).element_count == 12
        assert make_message(shape=()).element_count == 1
        assert make_message(shape=(0, 5)).element_count == 0

    def test_wire_size_matches_packed_length(self):
        msg = make_message()
        assert msg.wire_size == len(msg.pack())

    def test_wire_size_includes_header_overhead(self):
        msg = make_message(payload=b"")
        assert msg.wire_size > 0

    def test_magic_prefix(self):
        assert make_message().pack().startswith(MAGIC)

    def test_crc_detects_corruption(self):
        data = bytearray(make_message().pack())
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            WireMessage.unpack(bytes(data))

    def test_truncation_detected(self):
        data = make_message().pack()
        with pytest.raises(ValueError):
            WireMessage.unpack(data[: len(data) - 6])

    def test_bad_magic_rejected(self):
        data = bytearray(make_message().pack())
        # Corrupt magic and fix the CRC so only the magic check can fire.
        import struct
        import zlib

        data[0] ^= 0xFF
        body = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(body))
        with pytest.raises(ValueError, match="magic"):
            WireMessage.unpack(bytes(data))

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            make_message(dtype=np.int32)

    def test_float64_supported(self):
        msg = make_message(dtype=np.float64)
        assert WireMessage.unpack(msg.pack()).dtype == np.float64

    def test_too_many_dims_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            make_message(shape=(1,) * 256)

    def test_codec_ids_distinct(self):
        values = [c.value for c in CodecId]
        assert len(values) == len(set(values))

    def test_codec_id_numbers_are_pinned(self):
        # A number is a frame byte: no member may move, and a retired
        # number (8, 9, 11-14) is never handed to another codec.
        assert {c.name: c.value for c in CodecId} == {
            "FLOAT32": 0,
            "INT8": 1,
            "ONEBIT_MQE": 2,
            "STOCHASTIC_TERNARY_QE": 3,
            "TOPK_SPARSE": 4,
            "THREELC": 5,
            "THREELC_NO_ZRE": 6,
            "TWO_BIT_TERNARY": 7,
            "THREELC_HUFFMAN": 10,
            "FUSED_BUCKET": 15,
        }

    @pytest.mark.parametrize("codec_byte", UNASSIGNED_CODEC_BYTES)
    def test_retired_or_unknown_codec_id_refused(self, codec_byte):
        # Every byte no member holds, retired (8, 9, 11-14) or never used.
        with pytest.raises(ValueError, match=f"^unknown codec id {codec_byte}$"):
            WireMessage.unpack(with_codec_byte(make_message().pack(), codec_byte))

    @pytest.mark.parametrize("codec", list(CodecId), ids=lambda c: c.name)
    def test_every_assigned_codec_byte_unpacks_as_its_member(self, codec):
        data = with_codec_byte(make_message().pack(), codec.value)
        assert WireMessage.unpack(data) == make_message(codec_id=codec)

    @given(
        shape=st.lists(st.integers(0, 100), max_size=4).map(tuple),
        payload=st.binary(max_size=200),
        scalars=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=4
        ).map(tuple),
        codec=st.sampled_from(list(CodecId)),
    )
    def test_roundtrip_property(self, shape, payload, scalars, codec):
        msg = WireMessage(codec_id=codec, shape=shape, payload=payload, scalars=scalars)
        again = WireMessage.unpack(msg.pack())
        assert again == msg
        assert msg.wire_size == len(msg.pack())
