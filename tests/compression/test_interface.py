"""Cross-scheme contract tests: every compressor honours the interface."""

import warnings

import numpy as np
import pytest

from repro.compression import available_schemes, make_compressor
from repro.core.packets import WireMessage

ALL_SCHEMES = available_schemes()


@pytest.fixture(params=ALL_SCHEMES, ids=lambda s: s.replace(" ", "_"))
def scheme(request):
    return make_compressor(request.param, seed=11)


def _first_transmission(ctx, tensor):
    """Compress until the context actually transmits (local-steps defers)."""
    for _ in range(8):
        result = ctx.compress(tensor)
        if result is not None:
            return result
    raise AssertionError("context never transmitted")


class TestCompressorContract:
    @pytest.mark.parametrize(
        "shape", [(1,), (7,), (300,), (2, 2), (3, 50), (20, 17), (3, 5, 7), (8, 4, 3, 3)]
    )
    def test_packed_frame_decodes_to_the_reconstruction(self, scheme, shape, rng):
        t = rng.normal(size=shape).astype(np.float32)
        ctx = scheme.make_context(t.shape, key=("shape",))
        result = _first_transmission(ctx, t)
        out = scheme.decompress(WireMessage.unpack(result.message.pack()))
        assert out.shape == t.shape
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, result.reconstruction)

    def test_shape_mismatch_rejected(self, scheme):
        ctx = scheme.make_context((4, 4), key=("bad",))
        with pytest.raises(ValueError):
            ctx.compress(np.zeros((4, 5), dtype=np.float32))

    def test_zero_tensor_roundtrip(self, scheme):
        t = np.zeros((40,), dtype=np.float32)
        ctx = scheme.make_context(t.shape, key=("zero",))
        result = _first_transmission(ctx, t)
        np.testing.assert_array_equal(result.reconstruction, np.zeros_like(t))
        np.testing.assert_array_equal(
            scheme.decompress(result.message), result.reconstruction
        )

    def test_empty_tensor_compresses_without_a_warning(self, scheme):
        """A ring's chunks can be empty; Gaia's running RMS and the clipped
        ternary's sigma used to warn there, and Gaia kept the NaN."""
        t = np.zeros((0,), dtype=np.float32)
        ctx = scheme.make_context(t.shape, key=("empty",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _first_transmission(ctx, t)
            out = scheme.decompress(WireMessage.unpack(result.message.pack()))
            ctx.compress(t)
        assert out.shape == result.reconstruction.shape == (0,)
        assert np.isfinite(ctx.residual_norm())

    def test_residual_norm_finite(self, scheme, rng):
        ctx = scheme.make_context((32,), key=("res",))
        for _ in range(5):
            ctx.compress(rng.normal(size=32).astype(np.float32))
        assert np.isfinite(ctx.residual_norm())

    def test_wire_size_positive_and_counted(self, scheme, rng):
        t = rng.normal(size=(100,)).astype(np.float32)
        ctx = scheme.make_context(t.shape, key=("size",))
        result = _first_transmission(ctx, t)
        assert result.wire_size == len(result.message.pack())
        assert result.bits_per_value() > 0


class TestBatchHooks:
    """``compress_batch`` / ``decompress_batch`` are the per-item loops,
    result for result — overridden (3LC) or not."""

    SHAPES = [(33,), (4, 5), (2,), (1,), (256,)]

    def test_batch_equals_the_loop_over_steps(self, scheme, rng):
        batched, looped = (
            [
                make_compressor(scheme.name, seed=11).make_context(shape, key=("b", i))
                for i, shape in enumerate(self.SHAPES)
            ]
            for _ in range(2)
        )
        for _ in range(3):
            tensors = [rng.normal(0, 0.1, s).astype(np.float32) for s in self.SHAPES]
            got = scheme.compress_batch(zip(batched, tensors))
            want = [ctx.compress(t) for ctx, t in zip(looped, tensors)]
            assert [r is None for r in got] == [r is None for r in want]
            sent = [(a, b) for a, b in zip(got, want) if a is not None]
            for ours, theirs in sent:
                assert ours.message == theirs.message
                np.testing.assert_array_equal(
                    ours.reconstruction, theirs.reconstruction
                )
            decoded = scheme.decompress_batch([ours.message for ours, _ in sent])
            for out, (_, theirs) in zip(decoded, sent, strict=True):
                expected = scheme.decompress(theirs.message)
                assert out.dtype == expected.dtype and out.shape == expected.shape
                np.testing.assert_array_equal(out, expected)
            for ours, theirs in zip(batched, looped):
                assert ours.residual_norm() == theirs.residual_norm()

    def test_shape_mismatch_rejected_in_a_batch(self, scheme):
        ctx = scheme.make_context((4, 4), key=("bad",))
        with pytest.raises(ValueError):
            scheme.compress_batch([(ctx, np.zeros((4, 5), dtype=np.float32))])


class TestRegistry:
    def test_table1_has_eleven_designs(self):
        from repro.compression import TABLE1_SCHEMES

        assert len(TABLE1_SCHEMES) == 11
        assert TABLE1_SCHEMES[0] == "32-bit float"

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            make_compressor("gzip")

    def test_all_names_resolve(self):
        for name in ALL_SCHEMES:
            compressor = make_compressor(name)
            assert compressor.name == name
