"""The branch-free baseline codecs against the kernels they replaced.

MQE 1-bit, top-k sparsification, int8 and ``zre_decode`` were
rewritten for speed (index gathers, table lookups, scatters) under a
bit-identity contract. Two things pin it: ``codec_oracle.py``, the old bodies,
driven side by side with the new ones through several error-feedback steps;
and a SHA-256 over the seven ``codec_stream`` schemes generated on the commit
*before* the rewrite.
"""

import hashlib

import numpy as np
import pytest
from codec_oracle import Int8Oracle, OneBitOracle, TopKOracle
from codec_oracle import zre_decode as oracle_zre_decode
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import make_compressor
from repro.compression.int8 import Int8Compressor
from repro.compression.onebit import OneBitCompressor
from repro.compression.topk import (
    DEFAULT_SAMPLE_SIZE,
    TopKCompressor,
    sampled_threshold,
)
from repro.core.codec import unpack_ternary
from repro.core.quartic import quartic_decode
from repro.core.zre import zre_decode

SHAPES = ((1,), (7,), (8,), (9,), (3, 3, 16, 16), (3, 3, 64, 64))
#: ``SHAPES`` plus both sides of a bitmap byte (8 values) and of top-k's
#: threshold sample (exact up to ``DEFAULT_SAMPLE_SIZE``, sampled above).
STEP_SHAPES = SHAPES + (
    (2,), (4,), (5,), (16,), (17,), (DEFAULT_SAMPLE_SIZE,), (DEFAULT_SAMPLE_SIZE + 1,)
)
FAMILIES = (
    "heavy",
    "uniform",
    "zero",
    "negative",
    "nonnegative",
    "signed-zeros",
    "one-hot",
)
STEPS = 6


def generate(rng, family, shape):
    if family == "heavy":
        out = rng.standard_t(3, size=shape) * 0.01
    elif family == "uniform":
        out = rng.uniform(-1.0, 1.0, size=shape)
    elif family == "zero":
        out = np.zeros(shape)
    elif family == "negative":
        out = -rng.uniform(0.1, 1.0, size=shape)
    elif family == "nonnegative":
        out = rng.uniform(0.0, 1.0, size=shape) * (rng.random(shape) < 0.7)
    elif family == "signed-zeros":
        out = rng.choice([0.0, -0.0, 0.5, -0.5], size=shape)
    else:
        out = np.zeros(shape)
        out.reshape(-1)[rng.integers(out.size)] = rng.choice([-3.0, 3.0])
    return out.astype(np.float32)


def state_bytes(context):
    """A context's checkpoint with every array as bytes (so ±0.0 differ)."""
    return {
        key: value.tobytes() if isinstance(value, np.ndarray) else value
        for key, value in context.state_dict().items()
    }


PAIRS = {
    "mqe1": (OneBitCompressor, OneBitOracle),
    "int8": (Int8Compressor, Int8Oracle),
    "sparse5": (lambda: TopKCompressor(0.05, seed=3), lambda: TopKOracle(0.05, seed=3)),
    "sparse25": (lambda: TopKCompressor(0.25, seed=3), lambda: TopKOracle(0.25, seed=3)),
}


@pytest.mark.parametrize("shape", STEP_SHAPES, ids=lambda s: str(int(np.prod(s))))
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("pair", PAIRS)
def test_matches_the_old_kernels_step_by_step(pair, family, shape):
    new, old = (make() for make in PAIRS[pair])
    key = ("push", 0, family)
    new_context = new.make_context(shape, key=key)
    old_context = old.make_context(shape, key=key)
    rng = np.random.default_rng([len(family), int(np.prod(shape))])
    for step in range(STEPS):
        tensor = generate(rng, family, shape)
        got, want = new_context.compress(tensor), old_context.compress(tensor)
        assert got.message.pack() == want.message.pack(), step
        for array in (got.reconstruction, new.decompress(got.message)):
            assert array.dtype == np.float32 and array.shape == shape
            assert array.tobytes() == want.reconstruction.tobytes(), step
        assert old.decompress(want.message).tobytes() == want.reconstruction.tobytes()
        assert state_bytes(new_context) == state_bytes(old_context), step


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_int8_refuses_a_non_finite_tensor(bad):
    # The old kernel quantized it to garbage behind a RuntimeWarning.
    tensor = np.linspace(-1.0, 1.0, 24, dtype=np.float32)
    tensor[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Int8Compressor().make_context(tensor.shape).compress(tensor)


@given(
    size=st.integers(DEFAULT_SAMPLE_SIZE - 40, DEFAULT_SAMPLE_SIZE + 40)
    | st.integers(1, 40),
    fraction=st.sampled_from([1.0, 0.25, 0.05, 0.001, 1e-6, 1e-300])
    | st.floats(0.0, 1.0, exclude_min=True),
    levels=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_threshold_is_numpys_lower_quantile(size, fraction, levels, seed):
    # ``levels`` distinct magnitudes make ties; zero makes them all equal.
    magnitudes = np.abs(np.random.default_rng(seed).standard_normal(size))
    magnitudes = (np.floor(magnitudes * levels) + 0.5).astype(np.float32)
    before = magnitudes.copy()
    sample = magnitudes
    if size > DEFAULT_SAMPLE_SIZE:
        sample = np.random.default_rng(seed).choice(
            magnitudes, size=DEFAULT_SAMPLE_SIZE, replace=False
        )
    want = float(np.quantile(sample, 1.0 - fraction, method="lower"))
    got = sampled_threshold(magnitudes, fraction, np.random.default_rng(seed))
    assert got == want
    np.testing.assert_array_equal(magnitudes, before)


class TestZreDecodeParity:
    @given(data=hnp.arrays(np.uint8, st.integers(0, 300)))
    def test_any_byte_stream(self, data):
        decoded = zre_decode(data)
        assert decoded.dtype == np.uint8
        np.testing.assert_array_equal(decoded, oracle_zre_decode(data))

    @given(
        data=hnp.arrays(
            np.uint8, st.integers(0, 300), elements=st.sampled_from([0, 121, 242])
        )
    )
    def test_a_stream_without_escapes_comes_back_whole(self, data):
        np.testing.assert_array_equal(zre_decode(data), data)

    @given(
        segments=st.lists(
            st.tuples(
                hnp.arrays(
                    np.uint8,
                    st.integers(0, 40),
                    elements=st.sampled_from([0, 121, 242, 243, 250, 255]),
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_decode_kernel_equals_oracle_per_segment_with_plain_segments(
        self, segments
    ):
        # Only a flagged segment's runs expand; an escape-range byte in a
        # segment sent without zero-run encoding is refused, naming it.
        data = np.concatenate([segment for segment, _ in segments])
        offsets = np.concatenate(([0], np.cumsum([s.size for s, _ in segments])))
        flags = [flag for _, flag in segments]
        scales = [1.0] * len(segments)
        for encoded in (flags, None):
            expanded = [
                oracle_zre_decode(s) if flag or encoded is None else s
                for s, flag in segments
            ]
            counts = [5 * e.size for e in expanded]
            plain_escapes = [
                i for i, (s, flag) in enumerate(segments)
                if encoded is not None and not flag and (s > 242).any()
            ]
            if plain_escapes:
                with pytest.raises(ValueError, match=f"frame {plain_escapes[0]}:"):
                    unpack_ternary(data, offsets, counts, scales, encoded, np.float32)
                continue
            views = unpack_ternary(data, offsets, counts, scales, encoded, np.float32)
            for view, e, count in zip(views, expanded, counts):
                np.testing.assert_array_equal(view, quartic_decode(e, count))


# sha256 over pack() bytes, reconstruction, decoded tensor and residual of the
# seven codec_stream schemes on the grid below, computed on the parent commit
# (boolean-mask and np.where kernels).
GOLDEN_STREAM_SHA256 = "26ee6ddff94be02581b3e72d41e2bc8cea6418dec07fb14a28f0a811fd08cfd3"
STREAM_SCHEMES = (
    "32-bit float",
    "8-bit int",
    "MQE 1-bit int",
    "Stoch 3-value + QE",
    "5% sparsification",
    "3LC (s=1.00)",
    "3LC (s=1.75)",
)


def stream_digest() -> str:
    digest = hashlib.sha256()
    rng = np.random.default_rng(0)
    for name in STREAM_SCHEMES:
        scheme = make_compressor(name, seed=0)
        for family in ("heavy", "uniform", "signed-zeros", "one-hot"):
            for index, shape in enumerate(SHAPES):
                context = scheme.make_context(shape, key=("push", 0, index))
                for _ in range(5):
                    result = context.compress(generate(rng, family, shape))
                    decoded = scheme.decompress(result.message)
                    assert decoded.dtype == result.reconstruction.dtype == np.float32
                    assert decoded.tobytes() == result.reconstruction.tobytes()
                    digest.update(result.message.pack())
                    digest.update(decoded.tobytes())
                    residual = context.state_dict().get("residual")
                    if residual is not None:
                        digest.update(residual.tobytes())
    return digest.hexdigest()


def test_stream_outputs_match_the_old_kernels():
    assert stream_digest() == GOLDEN_STREAM_SHA256
