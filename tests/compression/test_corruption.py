"""Failure injection: corrupted frames must fail loudly, never crash.

Two layers of defence are exercised for every registered scheme:

* the transport CRC (``WireMessage.unpack``) catches any in-flight bit
  flip of the framed bytes;
* each decompressor validates its own payload invariants (counts, index
  ranges, level bounds), so a *forged* frame with a valid CRC still either
  decodes to a correctly-shaped tensor or raises :class:`ValueError` —
  no silent shape corruption, no unhandled IndexError, no hang.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import available_schemes, make_compressor
from repro.core.packets import WireMessage

ALL_SCHEMES = available_schemes()


def _first_transmission(ctx, tensor):
    for _ in range(8):
        result = ctx.compress(tensor)
        if result is not None:
            return result
    raise AssertionError("context never transmitted")


@pytest.fixture(params=ALL_SCHEMES, ids=lambda s: s.replace(" ", "_"))
def scheme(request):
    return make_compressor(request.param, seed=5)


class TestTransportCorruption:
    def test_any_flipped_byte_is_caught_by_crc(self, scheme, rng):
        t = rng.normal(0, 0.1, size=(6, 13)).astype(np.float32)
        ctx = scheme.make_context(t.shape, key=("fuzz",))
        packed = bytearray(_first_transmission(ctx, t).message.pack())
        for pos in rng.choice(len(packed), size=min(20, len(packed)), replace=False):
            corrupted = packed.copy()
            corrupted[pos] ^= 0xA5
            with pytest.raises(ValueError):
                WireMessage.unpack(bytes(corrupted))

    def test_truncation_is_caught(self, scheme, rng):
        t = rng.normal(size=40).astype(np.float32)
        ctx = scheme.make_context(t.shape, key=("trunc",))
        packed = _first_transmission(ctx, t).message.pack()
        for cut in (1, len(packed) // 2, len(packed) - 1):
            with pytest.raises(ValueError):
                WireMessage.unpack(packed[:cut])


class TestPayloadForgery:
    """A valid frame around a corrupted payload: the codec's own checks."""

    def test_payload_byte_flips_never_crash(self, scheme, rng):
        t = rng.normal(0, 0.1, size=(9, 11)).astype(np.float32)
        ctx = scheme.make_context(t.shape, key=("forge",))
        message = _first_transmission(ctx, t).message
        if not message.payload:
            pytest.skip("scheme has no payload to forge")
        payload = bytearray(message.payload)
        for pos in rng.choice(len(payload), size=min(30, len(payload)), replace=False):
            forged_payload = payload.copy()
            forged_payload[pos] ^= 0xFF
            forged = WireMessage(
                codec_id=message.codec_id,
                shape=message.shape,
                payload=bytes(forged_payload),
                scalars=message.scalars,
                dtype=message.dtype,
            )
            try:
                out = scheme.decompress(forged)
            except ValueError:
                continue  # detected: acceptable
            assert out.shape == t.shape  # undetected: must still be shaped

    def test_truncated_payload_never_crashes(self, scheme, rng):
        t = rng.normal(size=64).astype(np.float32)
        ctx = scheme.make_context(t.shape, key=("short",))
        message = _first_transmission(ctx, t).message
        if not message.payload:
            pytest.skip("scheme has no payload to truncate")
        for keep in (0, 1, len(message.payload) // 2):
            forged = WireMessage(
                codec_id=message.codec_id,
                shape=message.shape,
                payload=message.payload[:keep],
                scalars=message.scalars,
                dtype=message.dtype,
            )
            try:
                out = scheme.decompress(forged)
            except ValueError:
                continue
            assert out.shape == t.shape


@pytest.mark.parametrize("name", ALL_SCHEMES, ids=lambda s: s.replace(" ", "_"))
@pytest.mark.parametrize(
    "cut, appended",
    [(1, b""), (2, b""), (3, b""), (0, b"\x00\x01\x02\x03")],
    ids=["cut1", "cut2", "cut3", "append4"],
)
def test_a_payload_with_bytes_cut_off_or_appended_is_refused(name, cut, appended, rng):
    """Every registered scheme's ``decompress`` refuses a payload missing
    its last 1-3 bytes, or carrying 4 bytes past its end."""
    scheme = make_compressor(name, seed=5)
    t = rng.normal(0, 0.1, size=(16, 16)).astype(np.float32)
    context = scheme.make_context(t.shape, key=("tail",))
    message = _first_transmission(context, t).message
    assert len(message.payload) > cut
    forged = message.payload[: len(message.payload) - cut] + appended
    with pytest.raises(ValueError):
        scheme.decompress(replace(message, payload=forged))


# 1e300 and 3e38 are finite doubles that overflow float32 (3e38 once scaled).
FORGED_VALUES = (float("nan"), float("inf"), -float("inf"), -1.0, 1e300, 3e38)


class TestScalarForgery:
    """A valid frame around a forged header: no scheme decodes it to NaN."""

    def test_forged_scalars_raise_or_decode_finite(self, scheme, rng):
        t = rng.normal(0, 0.1, size=(9, 11)).astype(np.float32)
        ctx = scheme.make_context(t.shape, key=("header",))
        message = _first_transmission(ctx, t).message
        genuine = message.scalars
        forgeries = [genuine[:-1], genuine + (1.0,)] if genuine else [(1.0,)]
        forgeries += [
            genuine[:i] + (bad,) + genuine[i + 1 :]
            for i in range(len(genuine))
            for bad in FORGED_VALUES
        ]
        for scalars in forgeries:
            try:
                out = scheme.decompress(replace(message, scalars=scalars))
            except ValueError:
                continue  # detected: acceptable
            assert out.shape == t.shape and np.isfinite(out).all(), scalars

    @pytest.mark.parametrize(
        "name, scalars",
        [
            ("MQE 1-bit int", (float("nan"), 1.0)),
            ("MQE 1-bit int", (float("inf"), -float("inf"))),
            ("MQE 1-bit int", (1.0,)),
            ("MQE 1-bit int", (1.0, 2.0, 3.0)),
            ("8-bit int", (float("nan"),)),
            ("8-bit int", (float("inf"),)),
            ("8-bit int", (-1.0,)),
            ("8-bit int", (3e38,)),
            ("8-bit int", (1e300,)),
            ("MQE 1-bit int", (1e300, 1.0)),
            ("Stoch 3-value + QE", (1e300,)),
            ("8-bit int", ()),
            ("3LC (s=1.00)", (-1.0,)),
        ],
    )
    def test_the_error_names_scheme_and_scalars(self, name, scalars, rng):
        scheme = make_compressor(name)
        t = rng.normal(size=24).astype(np.float32)
        message = scheme.make_context(t.shape).compress(t).message
        with pytest.raises(ValueError) as error:
            scheme.decompress(replace(message, scalars=scalars))
        assert message.codec_id.name in str(error.value)
        assert f"scalars={scalars!r}" in str(error.value)

    def test_int8_scale_is_checked_against_a_forged_minus_128(self):
        # The encoder stops at +-127; 128 * scale must still fit float32.
        scheme = make_compressor("8-bit int")
        t = np.linspace(-1.0, 1.0, 24, dtype=np.float32)
        message = scheme.make_context(t.shape).compress(t).message
        scale = float(np.finfo(np.float32).max) / 127.5
        forged = replace(message, payload=b"\x80" * 24, scalars=(scale,))
        with pytest.raises(ValueError, match="INT8"):
            scheme.decompress(forged)


class TestWireMessageFuzz:
    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=100)
    def test_random_bytes_never_crash_unpack(self, blob):
        # Arbitrary garbage: unpack either raises ValueError or, in the
        # astronomically unlikely case of a valid CRC, returns a message.
        try:
            WireMessage.unpack(blob)
        except ValueError:
            pass


def test_a_runtime_warning_fails_this_suite():
    # tests/conftest.py marks this directory and tests/core ``error::RuntimeWarning``.
    with pytest.raises(RuntimeWarning, match="invalid value"):
        np.array([np.nan], dtype=np.float32).astype(np.int8)
