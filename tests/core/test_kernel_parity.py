"""One-pass ternary kernels: parity with the oracles and with the old kernels.

The vectorized ``core`` kernels were rewritten for speed under a
bit-identity contract. Three things pin it: the digit-/byte-at-a-time
``*_reference`` implementations (hypothesis properties plus the boundary
lengths: empty, one value, either side of a group and of a run chunk), the
per-segment stage-function calls the batched kernels must equal, and a
SHA-256 over ``ThreeLCCodec.compress`` outputs that was generated on the
commit *before* the rewrite — so the new kernels are held to the old
kernels' bytes, not only to the oracles'.
"""

import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.base import _bypass_compressor
from repro.compression.stochastic_ternary import StochasticTernaryCompressor
from repro.compression.threelc import ThreeLCCompressor
from repro.core.codec import _PACK_GROUPS, ThreeLCCodec, pack_ternary
from repro.core.packets import CodecId, WireMessage
from repro.core.quantization import max_magnitude, quantize_3value
from repro.core.quartic import (
    GROUP_SIZE,
    ZERO_GROUP_BYTE,
    quartic_decode,
    quartic_decode_reference,
    quartic_encode,
    quartic_encode_reference,
)
from repro.core.zre import zre_decode, zre_encode, zre_encode_reference

ternary_arrays = hnp.arrays(
    dtype=np.int8, shape=st.integers(0, 64), elements=st.integers(-1, 1)
)
EDGE_LENGTHS = (0, 1, 4, 5, 6)
RUN_LENGTHS = (1, 2, 13, 14, 15, 28, 29)


# -- (a) new kernels == reference implementations ---------------------------


class TestQuarticParity:
    @given(values=ternary_arrays)
    def test_encode_matches_reference(self, values):
        np.testing.assert_array_equal(
            quartic_encode(values), quartic_encode_reference(values)
        )

    @given(
        data=hnp.arrays(
            dtype=np.uint8, shape=st.integers(0, 16), elements=st.integers(0, 242)
        ),
        trim=st.integers(0, 4),
    )
    def test_decode_matches_reference(self, data, trim):
        count = max(0, 5 * data.size - trim) if data.size else 0
        np.testing.assert_array_equal(
            quartic_decode(data, count), quartic_decode_reference(data, count)
        )

    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    @pytest.mark.parametrize("fill", (-1, 0, 1))
    def test_edge_lengths(self, n, fill):
        values = np.full(n, fill, dtype=np.int8)
        encoded = quartic_encode(values)
        assert encoded.dtype == np.uint8
        np.testing.assert_array_equal(encoded, quartic_encode_reference(values))
        decoded = quartic_decode(encoded, n)
        assert decoded.dtype == np.int8
        np.testing.assert_array_equal(decoded, values)

    @pytest.mark.parametrize("dtype", (np.int8, np.int16, np.int32, np.int64))
    def test_every_signed_dtype_encodes_alike(self, dtype):
        values = np.array([1, -1, 0, 0, 1, -1, -1], dtype=dtype)
        np.testing.assert_array_equal(
            quartic_encode(values), quartic_encode_reference(values)
        )


# Streams as alternating literal stretches and zero-group runs, so that runs
# of every interesting length meet literals, each other's chunk boundary and
# both ends of the stream, in mostly-literal and mostly-zero proportions.
literal_bytes = st.integers(0, 242).filter(lambda b: b != ZERO_GROUP_BYTE)
zre_segments = st.lists(
    st.one_of(
        st.lists(literal_bytes, min_size=1, max_size=40),
        st.sampled_from(RUN_LENGTHS).map(lambda n: [ZERO_GROUP_BYTE] * n),
        st.integers(1, 60).map(lambda n: [ZERO_GROUP_BYTE] * n),
    ),
    max_size=8,
)


def assert_zre_matches_reference(stream):
    data = np.asarray(stream, dtype=np.uint8)
    encoded = zre_encode(data)
    assert encoded.dtype == np.uint8
    np.testing.assert_array_equal(encoded, zre_encode_reference(data))
    np.testing.assert_array_equal(zre_decode(encoded), data)


class TestZreParity:
    @given(segments=zre_segments)
    def test_encode_matches_reference(self, segments):
        assert_zre_matches_reference([b for seg in segments for b in seg])

    @given(
        data=hnp.arrays(
            dtype=np.uint8,
            shape=st.integers(0, 200),
            elements=st.sampled_from(
                [ZERO_GROUP_BYTE, ZERO_GROUP_BYTE, 0, 120, 122, 242]
            ),
        )
    )
    def test_encode_matches_reference_on_mixed_streams(self, data):
        assert_zre_matches_reference(data)

    @pytest.mark.parametrize("run", RUN_LENGTHS)
    @pytest.mark.parametrize("where", ("start", "middle", "end", "alone"))
    @pytest.mark.parametrize("literals", (1, 3, 70))
    def test_run_lengths_at_every_position(self, run, where, literals):
        zeros = [ZERO_GROUP_BYTE] * run
        fill = [(7 * i) % 121 for i in range(literals)]
        stream = {
            "start": zeros + fill,
            "middle": fill + zeros + fill,
            "end": fill + zeros,
            "alone": zeros,
        }[where]
        assert_zre_matches_reference(stream)

    @pytest.mark.parametrize("literals", (1, 5, 200))
    def test_two_runs_and_both_ends(self, literals):
        fill = [200] * literals
        for first in RUN_LENGTHS:
            for second in RUN_LENGTHS:
                assert_zre_matches_reference(
                    [ZERO_GROUP_BYTE] * first + fill + [ZERO_GROUP_BYTE] * second
                )

    @pytest.mark.parametrize("n", (0, 1, 2, 13, 14, 15, 28, 29, 1000))
    def test_all_zero_and_no_zero_streams(self, n):
        assert_zre_matches_reference([ZERO_GROUP_BYTE] * n)
        assert_zre_matches_reference([(3 * i) % 121 for i in range(n)])

    def test_rejects_non_quartic_bytes_in_either_regime(self):
        for stream in ([243] + [ZERO_GROUP_BYTE] * 30, [243] + [5] * 30):
            with pytest.raises(ValueError, match="quartic bytes"):
                zre_encode(np.array(stream, dtype=np.uint8))


# -- (b) the batched kernels == the stage functions per segment ---------------

segment_lengths = st.lists(
    st.one_of(st.just(0), st.integers(0, 23)), min_size=1, max_size=8
)


class TestBatchParity:
    @given(
        lengths=segment_lengths,
        seed=st.integers(0, 2**16),
        s=st.sampled_from([1.0, 1.5, 1.75]),
        use_zre=st.booleans(),
    )
    def test_encode_equals_the_stage_functions(self, lengths, seed, s, use_zre):
        rng = np.random.default_rng(seed)
        flat = rng.standard_normal(sum(lengths)).astype(np.float32)
        flat[rng.random(flat.size) < 0.2] = 0.0
        packed, offsets, scales, _ = ThreeLCCodec(s, use_zre=use_zre).encode(flat, lengths)
        assert packed.dtype == np.uint8 and offsets[-1] == packed.size
        start = 0
        for i, n in enumerate(lengths):
            single = quantize_3value(flat[start : start + n], s)
            quartic = quartic_encode(single.values)
            np.testing.assert_array_equal(
                packed[offsets[i] : offsets[i + 1]],
                zre_encode(quartic) if use_zre else quartic,
            )
            assert scales[i] == single.scale
            start += n

    @given(
        lengths=segment_lengths,
        seed=st.integers(0, 2**16),
        use_zre=st.booleans(),
    )
    def test_decode_equals_the_stage_functions(self, lengths, seed, use_zre):
        rng = np.random.default_rng(seed)
        flat = rng.standard_normal(sum(lengths)).astype(np.float32)
        flat[rng.random(flat.size) < 0.5] = 0.0
        codec = ThreeLCCodec(1.0, use_zre=use_zre)
        packed, offsets, scales, recon = codec.encode(flat, lengths)
        flags = None if use_zre else [False] * len(lengths)
        views = codec.decode(packed, offsets, lengths, scales, flags, np.float32)
        start = 0
        for i, n in enumerate(lengths):
            piece = packed[offsets[i] : offsets[i + 1]]
            values = quartic_decode(zre_decode(piece) if use_zre else piece, n)
            np.testing.assert_array_equal(views[i], values * np.float32(scales[i]))
            np.testing.assert_array_equal(views[i], recon[start : start + n])
            start += n

    def test_batches_of_only_empty_segments(self):
        codec = ThreeLCCodec(1.0)
        packed, offsets, scales, recon = codec.encode(np.zeros(0, np.float32), [0, 0])
        assert packed.size == 0 and recon.size == 0
        assert offsets.tolist() == [0, 0, 0] and scales.tolist() == [0.0, 0.0]
        views = codec.decode(packed, offsets, [0, 0], scales, None, np.float32)
        assert [v.size for v in views] == [0, 0]

    def test_decode_expands_only_the_flagged_segments(self):
        """A segment sent with ZRE has its runs expanded, a plain one is read as it is."""
        data = np.array([5, 250, 7, 121, 0], np.uint8)
        flagged = zre_decode(data[:2])
        counts = [flagged.size * 5, 15]
        views = ThreeLCCodec.decode(
            data, [0, 2, 5], counts, [2.0, 0.5], [True, False], np.float64
        )
        np.testing.assert_array_equal(views[0], quartic_decode(flagged, counts[0]) * 2.0)
        np.testing.assert_array_equal(views[1], quartic_decode(data[2:], 15) * 0.5)

    def test_encode_refuses_lengths_that_do_not_partition(self):
        with pytest.raises(ValueError, match="segment lengths"):
            ThreeLCCodec(1.0).encode(np.zeros(3, np.float32), [1, 1])


#: Group counts either side of the pack product's chunks of ``_PACK_GROUPS``.
PACK_GROUP_COUNTS = (
    1, _PACK_GROUPS - 1, _PACK_GROUPS, _PACK_GROUPS + 1, 3 * _PACK_GROUPS + 2
)


@pytest.mark.parametrize("dtype", (np.float16, np.float32, np.float64))
@pytest.mark.parametrize("s", (1.0, 1.75))
def test_pack_bytes_are_the_integer_product_in_every_chunk(dtype, s):
    """``pack_ternary``'s float product ``rows @ _WEIGHTS`` is exact in every
    chunk: the bytes are ``121 + rint(values) @ (81, 27, 9, 3, 1)`` in int64,
    which the digit-at-a-time oracle confirms. The product has been seen to
    raise an "invalid value" RuntimeWarning; one is recorded here, not raised,
    so the bytes are what is held."""
    rng = np.random.default_rng(16)
    for groups in PACK_GROUP_COUNTS:
        # Two short of whole groups: the last group is padded.
        flat = rng.uniform(-1.0, 1.0, GROUP_SIZE * groups - 2).astype(dtype)
        scale = max_magnitude(flat) * s
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            packed, offsets, _ = pack_ternary(flat, [flat.size], [scale], np.divide)
        values = np.zeros(GROUP_SIZE * groups, dtype=np.int64)
        values[: flat.size] = np.rint(flat / scale)
        exact = ZERO_GROUP_BYTE + values.reshape(-1, GROUP_SIZE) @ (81, 27, 9, 3, 1)
        np.testing.assert_array_equal(quartic_encode_reference(values), exact)
        np.testing.assert_array_equal(packed, exact)
        assert offsets.tolist() == [0, groups]
        assert all(w.category is RuntimeWarning for w in caught), caught


# -- (c) the non-finite check rides on the max/min passes -------------------


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("position", (0, 18, 36))
class TestNonFinite:
    def tensor(self, bad, position):
        tensor = np.linspace(-1.0, 1.0, 37, dtype=np.float32)
        tensor[position] = bad
        return tensor

    def test_quantize_3value(self, bad, position):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_3value(self.tensor(bad, position), 1.0)

    def test_batched_encode_names_the_segment(self, bad, position):
        segment = {0: 0, 18: 2, 36: 3}[position]  # of the lengths below
        with pytest.raises(ValueError, match=rf"non-finite tensor \(segment {segment}\)"):
            ThreeLCCodec(1.0).encode(self.tensor(bad, position), [10, 0, 20, 7])

    def test_stochastic_ternary_context(self, bad, position):
        context = StochasticTernaryCompressor(0).make_context((37,), key=("nf",))
        with pytest.raises(ValueError, match="non-finite"):
            context.compress(self.tensor(bad, position))


# -- (d) bit-identity with the nine-pass kernels they replaced --------------

# sha256 over payload, scale and reconstruction of ThreeLCCodec.compress on
# the grid below, computed on the parent commit (old nine-pass kernels).
GOLDEN_CODEC_SHA256 = "201f3dd58ea25a8bc5ebc7db73dfa038701edfb781dc39275893ef0f529b4257"


def codec_grid_digest() -> str:
    digest = hashlib.sha256()
    rng = np.random.default_rng(0)
    for s in (1.0, 1.75):
        codec = ThreeLCCodec(s)
        for family in ("student_t", "uniform"):
            for size in (1, 7, 2304, 36864):
                if family == "student_t":
                    tensor = (rng.standard_t(3, size=size) * 0.01).astype(np.float32)
                else:
                    tensor = rng.uniform(-1.0, 1.0, size=size).astype(np.float32)
                result = codec.compress(tensor)
                decoded = codec.decompress(result.message)
                assert decoded.dtype == result.reconstruction.dtype == np.float32
                np.testing.assert_array_equal(decoded, result.reconstruction)
                digest.update(result.message.payload)
                digest.update(struct.pack("<d", *result.message.scalars))
                digest.update(result.reconstruction.tobytes())
    return digest.hexdigest()


def test_codec_outputs_match_the_old_kernels():
    assert codec_grid_digest() == GOLDEN_CODEC_SHA256


# -- (e) input and scale checks ---------------------------------------------


class TestQuarticInputChecks:
    @pytest.mark.parametrize("dtype", (np.float16, np.float32, np.float64, np.bool_))
    def test_rejects_non_integer_dtypes_by_name(self, dtype):
        values = np.array([1, 0, 1], dtype=dtype)
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            quartic_encode(values)

    def test_float_input_is_no_longer_truncated(self):
        with pytest.raises(ValueError, match="float64"):
            quartic_encode(np.array([1.0, -1.0, 0.5]))

    @pytest.mark.parametrize("bad", (127, -128, 2, -2, 3, -3, 126, -127))
    @pytest.mark.parametrize("position", (0, 3, 6))
    def test_int8_range_check_survives_the_wrapping_shift(self, bad, position):
        values = np.zeros(7, dtype=np.int8)
        values[position] = bad
        with pytest.raises(ValueError, match=r"\{-1, 0, 1\}"):
            quartic_encode(values)

    @pytest.mark.parametrize(
        "dtype, bad",
        [
            (np.uint8, 255),
            (np.uint8, 2),
            (np.int16, 255),
            (np.int16, 256),
            (np.int16, -257),
            (np.int32, 65535),
            (np.int64, 2**32 - 1),
            (np.int64, -(2**40) + 1),
            (np.uint64, 2**64 - 1),
        ],
    )
    def test_wide_dtypes_cannot_alias_into_range(self, dtype, bad):
        values = np.array([0, 1, bad, 0], dtype=dtype)
        with pytest.raises(ValueError, match=r"\{-1, 0, 1\}"):
            quartic_encode(values)


def ternary_frame(codec_id, scalars):
    return WireMessage(
        codec_id=codec_id,
        shape=(5,),
        payload=quartic_encode(np.array([1, -1, 0, 1, 1], dtype=np.int8)).tobytes(),
        scalars=scalars,
        dtype=np.float32,
    )


@pytest.mark.parametrize(
    "decoder, codec_id",
    [
        (ThreeLCCodec(1.0), CodecId.THREELC),
        (ThreeLCCodec(1.0, use_zre=False), CodecId.THREELC_NO_ZRE),
        (ThreeLCCompressor(1.0), CodecId.THREELC),
        (StochasticTernaryCompressor(seed=0), CodecId.STOCHASTIC_TERNARY_QE),
    ],
)
class TestDecodersValidateTheScale:
    @pytest.mark.parametrize(
        "scalars",
        [(), (1.0, 2.0), (float("nan"),), (float("inf"),), (-float("inf"),), (-1.0,)],
    )
    def test_bad_scale_raises_naming_the_field(self, decoder, codec_id, scalars):
        with pytest.raises(ValueError, match="scalars"):
            decoder.decompress(ternary_frame(codec_id, scalars))

    @pytest.mark.parametrize("scale", (0.0, 0.25))
    def test_good_scale_decodes(self, decoder, codec_id, scale):
        decoded = decoder.decompress(ternary_frame(codec_id, (scale,)))
        expected = np.float32(scale) * np.array([1, -1, 0, 1, 1], dtype=np.float32)
        np.testing.assert_array_equal(decoded, expected)


class TestSharedBypassCompressor:
    def test_one_instance_serves_every_scheme(self, monkeypatch):
        import repro.compression.float32 as float32

        shared = _bypass_compressor()
        assert shared is _bypass_compressor()

        def forbidden(*args, **kwargs):
            raise AssertionError("bypass path built a fresh Float32Compressor")

        monkeypatch.setattr(float32.Float32Compressor, "__init__", forbidden)
        tensor = np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3)
        for scheme in (ThreeLCCompressor(1.75), StochasticTernaryCompressor(seed=1)):
            context = scheme.make_bypass_context(tensor.shape, key=("push", 0, "b"))
            result = context.compress(tensor)
            assert result.message.codec_id is CodecId.FLOAT32
            np.testing.assert_array_equal(
                scheme.decompress_bypass(result.message), tensor
            )
