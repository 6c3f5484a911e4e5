"""Batched codec path: bit-identity with the per-tensor reference.

A ring hop runs many segments through one pass per stage:
``ThreeLCCodec.encode``, ``zre_encode_batch`` and ``unpack_ternary``, which
``round_trip_context_batch`` chains. Their contract is *equivalence*, not
approximation — every byte, decoded tensor and error residual must match
the per-tensor calls, or a ring would train a (subtly) different model than
the reference. A hostile frame among several must fail the way it fails
alone, and say which frame it was.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.codec import (
    CompressionContext,
    ThreeLCCodec,
    round_trip_context_batch,
    unpack_ternary,
)
from repro.core.packets import CodecId
from repro.core.quartic import ZERO_GROUP_BYTE
from repro.core.zre import (
    LAST_ESCAPE_BYTE,
    zre_decode,
    zre_encode,
    zre_encode_batch,
)


# -- zero-run encoding and decoding across segment boundaries -----------------

RUN_LENGTHS = (1, 2, 13, 14, 15, 28, 29)
literal_bytes = st.integers(0, 242).filter(lambda b: b != ZERO_GROUP_BYTE)
#: One segment: literal stretches and zero-group runs in any order, so runs
#: end at a segment's last byte and resume at the next one's first.
zre_segment = st.lists(
    st.one_of(
        st.lists(literal_bytes, min_size=1, max_size=12),
        st.sampled_from(RUN_LENGTHS).map(lambda n: [ZERO_GROUP_BYTE] * n),
        st.integers(1, 80).map(lambda n: [ZERO_GROUP_BYTE] * n),
    ),
    max_size=4,
).map(lambda parts: [b for part in parts for b in part])


def assert_zre_batch_matches_per_segment(segments):
    segments = [np.asarray(seg, dtype=np.uint8) for seg in segments]
    offsets = np.concatenate(([0], np.cumsum([seg.size for seg in segments])))
    packed = np.concatenate([np.zeros(0, np.uint8), *segments])
    encoded, cuts = zre_encode_batch(packed, offsets)
    assert encoded.dtype == np.uint8 and cuts[0] == 0 and cuts[-1] == encoded.size
    for i, seg in enumerate(segments):
        piece = encoded[cuts[i] : cuts[i + 1]]
        np.testing.assert_array_equal(piece, zre_encode(seg))
        np.testing.assert_array_equal(zre_decode(piece), seg)


class TestZreEncodeBatch:
    @given(segments=st.lists(zre_segment, max_size=6))
    def test_matches_per_segment(self, segments):
        assert_zre_batch_matches_per_segment(segments)

    @pytest.mark.parametrize("regime", ["mostly-zero", "mostly-literal"])
    @pytest.mark.parametrize("first", RUN_LENGTHS)
    @pytest.mark.parametrize("second", RUN_LENGTHS)
    def test_run_ends_at_a_boundary_and_resumes(self, first, second, regime):
        """Both encoder strategies (picked from the whole batch's literal
        share, which the 300-byte segment decides) must stop a run at the
        boundary, not merge the two halves."""
        zeros = [ZERO_GROUP_BYTE]
        fill = zeros * 300 if regime == "mostly-zero" else [7 * i % 121 for i in range(300)]
        assert_zre_batch_matches_per_segment(
            [[7] + zeros * first, [], zeros * second + [9], fill, zeros * first]
        )

    @pytest.mark.parametrize("n", (0, 1, 2, 13, 14, 15, 28, 29, 500))
    def test_all_zero_and_no_zero_segments(self, n):
        zeros, literals = [ZERO_GROUP_BYTE] * n, [(3 * i) % 121 for i in range(n)]
        assert_zre_batch_matches_per_segment([zeros, zeros, literals])
        assert_zre_batch_matches_per_segment([literals, literals, zeros])
        assert_zre_batch_matches_per_segment([zeros] * 3)
        assert_zre_batch_matches_per_segment([literals] * 3)

    def test_no_segments_and_only_empty_segments(self):
        for offsets in ([0], [0, 0, 0]):
            encoded, cuts = zre_encode_batch(np.zeros(0, np.uint8), offsets)
            assert encoded.size == 0 and cuts.tolist() == offsets

    @pytest.mark.parametrize("offsets", [[], [1, 3], [0, 2], [0, 2, 1, 3]])
    def test_rejects_offsets_that_do_not_partition(self, offsets):
        with pytest.raises(ValueError, match="byte offsets"):
            zre_encode_batch(np.zeros(3, np.uint8), offsets)

    def test_rejects_non_quartic_bytes(self):
        with pytest.raises(ValueError, match="quartic bytes"):
            zre_encode_batch(np.array([1, 243, 2], np.uint8), [0, 1, 3])


#: Tensor lengths around the group size; values sparse enough for long runs.
tensor_lengths = st.lists(
    st.one_of(st.sampled_from([0, 1, 4, 5, 6]), st.integers(0, 400)), max_size=7
)


def sparse_tensors(lengths, seed, density):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(n) * (rng.random(n) < density)).astype(np.float32)
        for n in lengths
    ]


def unpack_frames(messages, dtype=np.float32):
    """3LC frames decoded by one ``unpack_ternary`` call, as a ring hop
    decodes its sends: payloads concatenated, counts, scales and zero-run
    flags beside them."""
    payloads = [message.payload for message in messages]
    zre = np.array([m.codec_id is CodecId.THREELC for m in messages], dtype=bool)
    views = unpack_ternary(
        np.frombuffer(b"".join(payloads), dtype=np.uint8),
        np.cumsum([0] + [len(payload) for payload in payloads]),
        [message.element_count for message in messages],
        [message.scalars[0] for message in messages],
        None if zre.all() else zre,
        dtype,
    )
    return [view.reshape(message.shape) for view, message in zip(views, messages)]


def assert_decodes_identical(codec, messages):
    """Per dtype, one call over every frame decodes each as ``decompress``."""
    for dtype in {message.dtype for message in messages}:
        batch = unpack_frames(messages, dtype)
        assert len(batch) == len(messages)
        for got, message in zip(batch, messages):
            if message.dtype != dtype:
                continue
            want = codec.decompress(message)
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)


class TestUnpackAcrossFrames:
    @given(
        lengths=tensor_lengths,
        seed=st.integers(0, 2**16),
        density=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
        use_zre=st.booleans(),
    )
    def test_matches_per_frame(self, lengths, seed, density, use_zre):
        codec = ThreeLCCodec(1.5, use_zre=use_zre)
        results = [codec.compress(t) for t in sparse_tensors(lengths, seed, density)]
        assert_decodes_identical(codec, [r.message for r in results])
        for got, result in zip(unpack_frames([r.message for r in results]), results):
            np.testing.assert_array_equal(got, result.reconstruction)

    @pytest.mark.parametrize("run", RUN_LENGTHS)
    def test_zero_runs_ending_at_frame_boundaries(self, run):
        """``5 * run`` zeros make exactly ``run`` zero groups: the frame
        ends on a run and the next frame starts with one."""
        codec = ThreeLCCodec(1.0)
        tensors = [np.zeros(5 * run, np.float32) for _ in range(3)]
        tensors[1][0] = 1.0
        tensors.insert(2, np.zeros((0, 3), np.float32))
        assert_decodes_identical(
            codec, [codec.compress(t).message for t in tensors]
        )

    def test_mixed_zre_plain_dtype_and_shape(self):
        rng = np.random.default_rng(5)
        codecs = [
            ThreeLCCodec(1.0),
            ThreeLCCodec(1.9, use_zre=False, dtype=np.float64),
            ThreeLCCodec(1.75, dtype=np.float16),
        ]
        shapes = [(40,), (3, 7), (0,), (2, 2, 9), (), (61,)]
        messages = [
            codecs[i % 3].compress(rng.standard_normal(shape) * (i % 2)).message
            for i, shape in enumerate(shapes)
        ]
        assert_decodes_identical(codecs[0], messages)

    def test_no_frames(self):
        assert unpack_frames([]) == []


class TestHostileFramesAmongOthers:
    """One bad frame among good ones: the error ``decompress`` raises for it
    alone, naming its position — never a wrong-shaped or shifted array."""

    @pytest.fixture
    def messages(self):
        rng = np.random.default_rng(6)
        codec = ThreeLCCodec(1.0)
        return [
            codec.compress(
                (rng.standard_normal(n) * (rng.random(n) < 0.05)).astype(np.float32)
            ).message
            for n in (200, 35, 120)
        ]

    def check(self, messages, position, bad, match):
        with pytest.raises(ValueError, match=match) as alone:
            ThreeLCCodec(1.0).decompress(bad)
        hostile = list(messages)
        hostile[position] = bad
        with pytest.raises(ValueError, match=rf"frame {position}: ") as batched:
            unpack_frames(hostile)
        assert str(batched.value) == f"frame {position}: {alone.value}"

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_truncated_payload(self, messages, position):
        good = messages[position]
        bad = dataclasses.replace(good, payload=good.payload[:-1])
        self.check(messages, position, bad, "inconsistent with count")

    @pytest.mark.parametrize("position", [0, 1])
    def test_escape_overrunning_into_the_next_frame(self, messages, position):
        """A full-length run appended to a frame over-runs its count; taken
        as one stream the surplus would shift every later frame."""
        good = messages[position]
        bad = dataclasses.replace(
            good, payload=good.payload + bytes([LAST_ESCAPE_BYTE])
        )
        self.check(messages, position, bad, "inconsistent with count")

    def test_overrun_balanced_by_a_short_neighbour_is_still_caught(self, messages):
        """Two wrong frames whose lengths cancel must not pass as a pair."""
        first, second = messages[0], messages[1]
        run = bytes([ZERO_GROUP_BYTE])
        hostile = [
            dataclasses.replace(first, payload=first.payload + run),
            dataclasses.replace(second, shape=(second.shape[0] + 5,)),
            messages[2],
        ]
        with pytest.raises(ValueError, match=r"frame 0: .*inconsistent with count"):
            unpack_frames(hostile)

    def test_escape_byte_in_a_frame_sent_without_zre(self, messages):
        plain = ThreeLCCodec(1.0, use_zre=False)
        good = plain.compress(np.ones(10, np.float32)).message
        bad = dataclasses.replace(good, payload=bytes([5, LAST_ESCAPE_BYTE]))
        self.check(messages, 1, bad, "outside quartic range")
        self.check([good, *messages], 0, bad, "outside quartic range")


def test_frame_free_round_trip_is_per_context_compress_across_layouts():
    """``round_trip_context_batch`` keeps one flat residual per tuple of
    contexts; reordering them, or moving one into another tuple, lays the
    hop out again and must not change a byte."""
    codec = ThreeLCCodec(1.0)
    shapes = [(7,), (3, 4), (0,), (30,), ()]
    ours = [CompressionContext(shape, codec) for shape in shapes]
    theirs = [CompressionContext(shape, codec) for shape in shapes]
    rng = np.random.default_rng(3)
    every = [0, 1, 2, 3, 4]
    # [1] moves one context out of ``every``'s hop, which must not be reused.
    for order in (every, every, [3, 1, 0, 4, 2], [1, 2], every, [2, 0], every,
                  [1], every):
        tensors = [rng.standard_normal(shapes[i]).astype(np.float32) for i in order]
        got, sizes = round_trip_context_batch(
            [(ours[i], tensor) for i, tensor in zip(order, tensors)]
        )
        results = [theirs[i].compress(tensor) for i, tensor in zip(order, tensors)]
        assert sizes == [result.wire_size for result in results]
        want = [codec.decompress(result.message) for result in results]
        for ours_out, theirs_out in zip(got, want, strict=True):
            assert ours_out.shape == theirs_out.shape
            assert ours_out.tobytes() == theirs_out.tobytes()
        for a, b in zip(ours, theirs):
            assert a.buffer.residual.tobytes() == b.buffer.residual.tobytes()


def random_tensors(rng, count, *, dtype=np.float32):
    shapes = [(0,), (1,), (7,), (64,), (3, 5), (16, 16), (2, 3, 4)]
    return [
        rng.standard_normal(shapes[i % len(shapes)]).astype(dtype)
        for i in range(count)
    ]


def assert_round_trip_is_per_context(ours, theirs, tensors):
    """One hop over ``ours`` decodes and sizes what each of ``theirs``
    frames alone, and leaves the same residuals."""
    got, sizes = round_trip_context_batch(list(zip(ours, tensors)))
    results = [ctx.compress(t) for ctx, t in zip(theirs, tensors)]
    assert sizes == [result.wire_size for result in results]
    for out, result, ctx in zip(got, results, theirs, strict=True):
        want = ctx.codec.decompress(result.message)
        assert out.dtype == want.dtype and out.shape == want.shape
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(out, result.reconstruction)
    for a, b in zip(ours, theirs):
        assert a.residual_norm() == b.residual_norm()
        if b.buffer is not None:
            assert a.buffer.residual.tobytes() == b.buffer.residual.tobytes()


@pytest.mark.parametrize("s", [1.0, 1.5, 1.99])
@pytest.mark.parametrize("use_zre", [True, False])
def test_round_trip_matches_per_context_compress(s, use_zre):
    rng = np.random.default_rng(0)
    codec = ThreeLCCodec(s, use_zre=use_zre)
    tensors = random_tensors(rng, 9)
    ours, theirs = (
        [CompressionContext(t.shape, codec) for t in tensors] for _ in range(2)
    )
    assert_round_trip_is_per_context(ours, theirs, tensors)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_round_trip_decodes_in_the_codec_dtype(dtype):
    rng = np.random.default_rng(1)
    codec = ThreeLCCodec(1.0, dtype=dtype)
    tensors = random_tensors(rng, 5, dtype=dtype)
    ours, theirs = (
        [CompressionContext(t.shape, codec) for t in tensors] for _ in range(2)
    )
    assert_round_trip_is_per_context(ours, theirs, tensors)


def test_round_trip_of_no_items():
    assert round_trip_context_batch([]) == ([], [])


@pytest.mark.parametrize("error_feedback", [True, False])
def test_round_trip_matches_per_context_compress_over_steps(error_feedback):
    """Error feedback accumulates across steps; a hop and the per-context
    path must keep bit-identical residuals throughout."""
    rng = np.random.default_rng(3)
    codec = ThreeLCCodec(1.0)
    shapes = [(32,), (4, 4), (17,)]
    ours, theirs = (
        [CompressionContext(sh, codec, error_feedback=error_feedback) for sh in shapes]
        for _ in range(2)
    )
    for _ in range(4):
        tensors = [rng.standard_normal(sh).astype(np.float32) for sh in shapes]
        assert_round_trip_is_per_context(ours, theirs, tensors)


# A scale the receivers refuse is refused by the sender, before any residual
# moves: error feedback would otherwise subtract an infinite reconstruction.
BEYOND = np.array([3e38, -1e38, 1.0, 0.0], dtype=np.float32)
SCALE = float(BEYOND[0]) * 1.75
HIGH = float(np.finfo(np.float32).max)


def _compress(contexts, tensors):
    return [context.compress(tensor) for context, tensor in zip(contexts, tensors)]


def _round_trip(contexts, tensors):
    return round_trip_context_batch(list(zip(contexts, tensors)))


@pytest.mark.parametrize("path", [_compress, _round_trip])
def test_scale_beyond_the_dtype_is_refused_before_the_residual_moves(path):
    codec = ThreeLCCodec(1.75)
    good = np.linspace(-1.0, 1.0, 4, dtype=np.float32)
    contexts = [CompressionContext((4,), codec) for _ in range(3)]
    tensors = [good, BEYOND, good]
    frame = 0 if path is _compress else 1
    expected = f"frame {frame}: scale {SCALE!r} beyond {HIGH}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        path(contexts, tensors)
    for context in contexts:
        assert np.isfinite(context.buffer.residual).all()
    assert SCALE > HIGH
