"""Frozen digests of the batched and stochastic ternary codec paths.

``GOLDEN_CODEC_SHA256`` (``test_kernel_parity.py``) covers the per-tensor
``ThreeLCCodec.compress`` only. The digest here covers the array-level
core (``encode`` / ``decode``), each ``encode`` segment framed alone and
decoded by ``decompress``, two error-feedback steps of the frame-free ring hop
(``round_trip_context_batch``) and ``Stoch 3-value + QE`` at a fixed seed,
over segments of every length mod 5, empty and one-element segments, an
all-zero segment, long zero runs that cross segment boundaries, both
sparsity multipliers and both codec dtypes. It was computed before the
pack and decode kernels were rewritten, so the kernels are held to the old
bytes, scales, reconstructions and decodes, the sign of every zero
included (``tobytes`` tells +0.0 from -0.0).
"""

import hashlib

import numpy as np
import pytest

from repro.compression.stochastic_ternary import StochasticTernaryCompressor
from repro.core.codec import CompressionContext, ThreeLCCodec, round_trip_context_batch
from repro.core.packets import WireMessage

GOLDEN_BATCH_SHA256 = "e8fa9cdc035abc549e98a191c0aa663bd63161031e11b66037b83312f4fbb878"

LENGTHS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 0, 23, 64, 301, 2304)
FAMILIES = ("heavy", "dense", "spiky")


def segments(rng, family, dtype):
    """One tensor per length, plus an all-zero one, of one value family."""
    out = []
    for n in LENGTHS:
        if family == "heavy":
            t = rng.standard_t(3, size=n) * 0.01
        elif family == "dense":
            t = rng.uniform(-1.0, 1.0, size=n)
        else:
            # Mostly exact zeros (and negative zeros): zero runs span
            # whole segments and cross their boundaries.
            t = np.where(rng.random(n) < 0.02, rng.standard_normal(n), 0.0)
            t[rng.random(n) < 0.3] = -0.0
        out.append(t.astype(dtype))
    out.insert(5, np.zeros(12, dtype=dtype))
    return out


def grid():
    rng = np.random.default_rng(2024)
    for dtype in (np.float32, np.float64):
        for s in (1.0, 1.75):
            for family in FAMILIES:
                yield dtype, s, segments(rng, family, dtype)


def update(digest, *arrays):
    for arr in arrays:
        arr = np.asarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(arr.tobytes())


def framed(codec, tensors, encoded, offsets, scales) -> list[WireMessage]:
    """Each segment of one ``encode`` as a frame of its own.

    Not ``compress`` per tensor: an all-zero segment's ``encode`` scale can
    be -0.0 where ``compress`` frames +0.0, and the pin holds the former.
    """
    cuts = np.asarray(offsets).tolist()
    return [
        WireMessage(
            codec_id=codec.codec_id,
            shape=tensor.shape,
            payload=encoded[cuts[i] : cuts[i + 1]].tobytes(),
            scalars=(scale,),
            dtype=codec.dtype,
        )
        for i, (tensor, scale) in enumerate(zip(tensors, scales.tolist()))
    ]


def batch_digest() -> str:
    digest = hashlib.sha256()
    for dtype, s, tensors in grid():
        lengths = np.array([t.size for t in tensors], dtype=np.intp)
        flat = np.concatenate(tensors)
        for use_zre in (True, False):
            codec = ThreeLCCodec(s, use_zre=use_zre, dtype=dtype)
            encoded, offsets, scales, recon = codec.encode(flat, lengths)
            update(digest, encoded, np.asarray(offsets, np.int64), scales, recon)
            zre = None if use_zre else np.zeros(len(tensors), dtype=bool)
            for d in (np.float32, np.float64):
                decoded = codec.decode(encoded, offsets, lengths, scales, zre, d)
                update(digest, *decoded)
            messages = framed(codec, tensors, encoded, offsets, scales)
            starts = np.concatenate(([0], np.cumsum(lengths))).tolist()
            for i, message in enumerate(messages):
                digest.update(message.pack())
                update(digest, recon[starts[i] : starts[i + 1]].reshape(message.shape))
            update(digest, *(codec.decompress(message) for message in messages))
            for tensor in tensors:
                result = codec.compress(tensor)
                digest.update(result.message.pack())
                update(digest, result.reconstruction)
                update(digest, codec.decompress(result.message))
            contexts = [CompressionContext(t.shape, codec) for t in tensors]
            for step in range(2):
                received, sizes = round_trip_context_batch(
                    [(c, t * (1 + step)) for c, t in zip(contexts, tensors)]
                )
                update(digest, *received, np.asarray(sizes, np.int64))
                update(digest, *(c.buffer.residual for c in contexts))
        if dtype is np.float32:
            scheme = StochasticTernaryCompressor(seed=7)
            contexts = [
                scheme.make_context(t.shape, key=("pin", i))
                for i, t in enumerate(tensors)
            ]
            for step in range(2):
                for context, tensor in zip(contexts, tensors):
                    result = context.compress(tensor)
                    digest.update(result.message.pack())
                    update(digest, result.reconstruction)
                    update(digest, scheme.decompress(result.message))
    return digest.hexdigest()


def test_batched_paths_match_the_old_kernels():
    assert batch_digest() == GOLDEN_BATCH_SHA256


# -- the sign of zero ---------------------------------------------------------


def signed_zeros(dtype):
    """-0.0, +0.0 and small negatives that quantize to zero, beside +-1."""
    return np.array(
        [-0.0, -1e-9, 0.0, 1.0, -1.0, -0.3, 0.2, -0.0, -0.49, -0.01, 0.0], dtype=dtype
    )


def assert_zeros_positive(*arrays):
    for arr in arrays:
        zeros = np.asarray(arr) == 0
        assert zeros.any()
        assert not np.signbit(np.asarray(arr)[zeros]).any()


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("s", (1.0, 1.75))
@pytest.mark.parametrize("use_zre", (True, False))
def test_3lc_zeros_come_back_positive(dtype, s, use_zre):
    codec = ThreeLCCodec(s, use_zre=use_zre, dtype=dtype)
    tensor = signed_zeros(dtype)
    result = codec.compress(tensor)
    assert_zeros_positive(result.reconstruction, codec.decompress(result.message))
    negated = codec.compress(-0.0 * tensor)
    assert_zeros_positive(negated.reconstruction, codec.decompress(negated.message))
    lengths = np.array([4, 7])
    encoded, offsets, scales, recon = codec.encode(tensor, lengths)
    assert_zeros_positive(recon)
    zre = None if use_zre else np.zeros(2, dtype=bool)
    assert_zeros_positive(*codec.decode(encoded, offsets, lengths, scales, zre, dtype))
    contexts = [CompressionContext(tensor.shape, codec) for _ in range(2)]
    received, _ = round_trip_context_batch([(c, tensor) for c in contexts])
    assert_zeros_positive(*received)
    for context in contexts:
        assert_zeros_positive(context.compress(tensor).reconstruction)


def test_stochastic_ternary_zeros_come_back_positive():
    scheme = StochasticTernaryCompressor(seed=0)
    context = scheme.make_context((11,))
    for _ in range(4):
        result = context.compress(signed_zeros(np.float32))
        assert_zeros_positive(
            result.reconstruction, scheme.decompress(result.message)
        )
