"""Cross-scheme contract tests: every compressor honours the interface."""

import re
import warnings

import numpy as np
import pytest
from retired_schemes import RETIRED_SCHEMES

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
        "shape",
        [(1,), (7,), (300,), (2, 2), (3, 50), (20, 17), (3, 5, 7), (8, 4, 3, 3)]
        # Either side of a quartic byte (5 values), a bitmap byte (8 values)
        # and top-k's 4096-entry threshold sample.
        + [(n,) for n in (2, 4, 5, 6, 8, 9, 10, 11, 16, 17, 4096, 4097)],
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
        """A ring's chunks can be empty: no scheme warns on one or keeps a
        NaN from it."""
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


class TestRoundTrip:
    """``round_trip`` — the one batched codec path, a ring hop — is the
    per-item ``compress`` + ``decompress`` loop, result for result,
    overridden (3LC) or not; a deferring scheme refuses the hop."""

    SHAPES = [(33,), (4, 5), (2,), (1,), (256,), (0,)]

    def test_round_trip_is_the_per_item_loop_over_steps(self, scheme, rng):
        hop, looped = (
            [
                make_compressor(scheme.name, seed=11).make_context(shape, key=("b", i))
                for i, shape in enumerate(self.SHAPES)
            ]
            for _ in range(2)
        )
        for _ in range(3):
            tensors = [rng.normal(0, 0.1, s).astype(np.float32) for s in self.SHAPES]
            if scheme.defers_transmission:
                with pytest.raises(ValueError, match="deferred a hop transmission"):
                    scheme.round_trip(zip(hop, tensors))
                return
            received, sizes = scheme.round_trip(zip(hop, tensors))
            results = [ctx.compress(t) for ctx, t in zip(looped, tensors)]
            assert sizes == [result.wire_size for result in results]
            for out, result in zip(received, results, strict=True):
                expected = scheme.decompress(result.message)
                assert out.dtype == np.float32 and out.shape == expected.shape
                np.testing.assert_array_equal(out, expected)
            for ours, theirs in zip(hop, looped):
                assert ours.residual_norm() == theirs.residual_norm()

    def test_shape_mismatch_rejected_in_a_round_trip(self, scheme):
        ctx = scheme.make_context((4, 4), key=("bad",))
        with pytest.raises(ValueError):
            scheme.round_trip([(ctx, np.zeros((4, 5), dtype=np.float32))])


class TestRegistry:
    def test_table1_has_eleven_designs(self):
        from repro.compression import TABLE1_SCHEMES

        assert len(TABLE1_SCHEMES) == 11
        assert TABLE1_SCHEMES[0] == "32-bit float"

    def test_registry_holds_exactly_the_names_the_tables_read(self):
        """Registration is not a consumer: every name is a Table 1 or Table 2
        row."""
        from repro.compression import TABLE1_SCHEMES
        from repro.harness.tables import TABLE2_SCHEMES

        assert set(ALL_SCHEMES) == set(TABLE1_SCHEMES) | set(TABLE2_SCHEMES)
        assert len(ALL_SCHEMES) == 12

    @pytest.mark.parametrize(
        "readers",
        [
            "OVERVIEW_SCHEMES",
            "FAST_SCHEMES",
            "FIGURE7_SCHEMES",
            "FIGURE8_SCHEMES",
            "default_space",
            "STREAM_SCHEMES",
        ],
    )
    def test_every_scheme_set_the_repo_reads_is_registered(self, readers):
        from test_codec_parity import STREAM_SCHEMES

        from repro.harness import figures
        from repro.harness.config import FAST_CONFIG
        from repro.tuner.space import default_space

        names = {
            "default_space": default_space(FAST_CONFIG).schemes,
            "STREAM_SCHEMES": STREAM_SCHEMES,
        }.get(readers) or getattr(figures, readers)
        assert set(names) <= set(ALL_SCHEMES), names

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            make_compressor("gzip")

    @pytest.mark.parametrize("name", RETIRED_SCHEMES)
    def test_a_retired_scheme_is_unknown_by_name(self, name):
        with pytest.raises(KeyError, match=re.escape(f"unknown scheme {name!r};")):
            make_compressor(name)

    def test_all_names_resolve(self):
        for name in ALL_SCHEMES:
            compressor = make_compressor(name)
            assert compressor.name == name
