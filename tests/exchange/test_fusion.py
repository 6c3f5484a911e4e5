"""Fused-bucket hot path: wire format, codec context, and engine parity.

The fused path must be *numerically invisible* — small tensors travel
through the lossless bypass codec either way — while cutting frame count
and header bytes. These tests pin both properties.
"""

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.compression.fusion import (
    Bucket,
    FusedBucketContext,
    build_fusion_plan,
    split_bucket,
)
from repro.core.packets import CodecId, FusedWireMessage, WireMessage
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.nn import CosineDecay, build_resnet


def model_factory():
    return build_resnet(8, base_width=4, seed=7)


def make_cluster(fuse: bool, scheme: str = "3LC (s=1.00)") -> ExchangeEngine:
    return ExchangeEngine(
        model_factory,
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(scheme, seed=0),
        CosineDecay(0.05, 6),
        EngineConfig(
            num_workers=2,
            batch_size=8,
            shard_size=32,
            cluster_seed=0,
            fuse_small_tensors=fuse,
        ),
    )


class TestFusionPlan:
    def test_only_small_tensors_fused(self):
        plan = build_fusion_plan(
            {"a": (10, 10), "big": (64, 64), "b": (7,), "c": (3, 3)},
            threshold=256,
            bucket_elements=1024,
        )
        assert plan.fused_names == {"a", "b", "c"}
        assert len(plan.buckets) == 1
        assert plan.buckets[0].names == ("a", "b", "c")

    def test_capacity_splits_buckets(self):
        plan = build_fusion_plan(
            {f"t{i}": (100,) for i in range(10)},
            threshold=256,
            bucket_elements=250,
        )
        assert [b.names for b in plan.buckets] == [
            ("t0", "t1"), ("t2", "t3"), ("t4", "t5"), ("t6", "t7"), ("t8", "t9"),
        ]
        assert all(b.index == i for i, b in enumerate(plan.buckets))

    def test_deterministic_in_registration_order(self):
        shapes = {"z": (5,), "a": (6,), "m": (7,)}
        plan = build_fusion_plan(shapes, threshold=256, bucket_elements=1024)
        assert plan.buckets[0].names == ("z", "a", "m")

    def test_offsets_cover_bucket(self):
        bucket = Bucket(0, ("x", "y"), ((2, 3), (4,)))
        assert bucket.total_elements == 10
        assert bucket.offsets == ((0, 6), (6, 10))


class TestBucketBoundaries:
    """Named boundaries force-close the open bucket (the autotuner knob)."""

    def test_boundary_splits_at_named_tensor(self):
        shapes = {f"t{i}": (100,) for i in range(4)}
        plan = build_fusion_plan(
            shapes, threshold=256, bucket_elements=1024,
            boundaries=frozenset({"t2"}),
        )
        assert [b.names for b in plan.buckets] == [("t0", "t1"), ("t2", "t3")]

    def test_unknown_boundary_names_are_ignored(self):
        shapes = {"a": (10,), "b": (10,)}
        plan = build_fusion_plan(
            shapes, threshold=256, bucket_elements=1024,
            boundaries=frozenset({"nope", "big"}),
        )
        assert [b.names for b in plan.buckets] == [("a", "b")]

    def test_boundary_composes_with_capacity(self):
        shapes = {f"t{i}": (100,) for i in range(6)}
        plan = build_fusion_plan(
            shapes, threshold=256, bucket_elements=250,
            boundaries=frozenset({"t1"}),
        )
        assert [b.names for b in plan.buckets] == [
            ("t0",), ("t1", "t2"), ("t3", "t4"), ("t5",),
        ]

    def test_engine_config_requires_fuse_for_boundaries(self):
        with pytest.raises(ValueError, match="fuse_small_tensors"):
            EngineConfig(
                num_workers=2,
                fuse_small_tensors=False,
                bucket_boundaries=("t1",),
            )


class TestFusedWireMessage:
    def make_message(self) -> FusedWireMessage:
        flat = np.arange(10, dtype="<f4")
        inner = WireMessage(
            codec_id=CodecId.FLOAT32, shape=(10,), payload=flat.tobytes()
        )
        return FusedWireMessage(inner=inner, shapes=((2, 3), (4,)))

    def test_roundtrip(self):
        message = self.make_message()
        decoded = FusedWireMessage.unpack(message.pack())
        assert decoded.shapes == message.shapes
        assert decoded.inner == message.inner

    def test_wire_size_is_packed_length(self):
        message = self.make_message()
        assert message.wire_size == len(message.pack())

    def test_element_count(self):
        assert self.make_message().element_count == 10

    def test_crc_detects_corruption(self):
        data = bytearray(self.make_message().pack())
        data[10] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            FusedWireMessage.unpack(bytes(data))

    def test_shape_table_must_cover_payload(self):
        flat = np.arange(10, dtype="<f4")
        inner = WireMessage(
            codec_id=CodecId.FLOAT32, shape=(10,), payload=flat.tobytes()
        )
        with pytest.raises(ValueError, match="elements"):
            FusedWireMessage(inner=inner, shapes=((3,),))

    def test_fused_saves_header_bytes_vs_per_tensor(self):
        """K small tensors fused into one frame must cost fewer wire bytes
        than K individual float32 frames carrying the same values."""
        shapes = [(16,)] * 20
        tensors = [np.random.default_rng(i).normal(size=s).astype("<f4") for i, s in enumerate(shapes)]
        per_tensor = sum(
            WireMessage(
                codec_id=CodecId.FLOAT32, shape=t.shape, payload=t.tobytes()
            ).wire_size
            for t in tensors
        )
        flat = np.concatenate([t.reshape(-1) for t in tensors])
        fused = FusedWireMessage(
            inner=WireMessage(
                codec_id=CodecId.FLOAT32, shape=flat.shape, payload=flat.tobytes()
            ),
            shapes=tuple(t.shape for t in tensors),
        ).wire_size
        assert fused < per_tensor


class TestFusedBucketContext:
    def test_reconstruction_is_exact_per_tensor(self):
        scheme = make_compressor("3LC (s=1.00)", seed=0)
        bucket = Bucket(0, ("a", "b"), ((3, 2), (5,)))
        context = scheme.make_fused_context(bucket, key=("t", 0), lossy=False)
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.normal(size=(3, 2)).astype(np.float32),
            "b": rng.normal(size=(5,)).astype(np.float32),
        }
        result = context.compress(tensors)
        # Bypass is lossless: reconstruction equals input bit-for-bit.
        for name in tensors:
            np.testing.assert_array_equal(result.parts[name], tensors[name])
        # Receiver decode path: one codec call, then split.
        flat = scheme.decompress_fused(result.message, lossy=False)
        decoded = split_bucket(flat, bucket)
        for name in tensors:
            np.testing.assert_array_equal(decoded[name], tensors[name])

    def test_deferring_scheme_defers_whole_bucket(self):
        scheme = make_compressor("2 local steps", seed=0)
        bucket = Bucket(0, ("a",), ((4,),))
        context = scheme.make_fused_context(bucket, key=("t", 0), lossy=False)
        tensor = {"a": np.ones(4, dtype=np.float32)}
        assert context.compress(tensor) is None  # off-step: deferred
        result = context.compress(tensor)  # on-step: accumulated 2x
        np.testing.assert_array_equal(result.parts["a"], 2 * np.ones(4))


class TestFusedBucketIsOneFlatCall:
    """A bucket's ``compress`` ≡ one ``compress`` of its flat concatenation
    by the context it wraps — the scheme's own when lossy, the bypass when
    exact: frames, reconstructions, deferrals and residuals, over steps."""

    BUCKET = Bucket(2, ("d", "e", "f"), ((1,), (2, 2), (7,)))

    @pytest.mark.parametrize("lossy", [False, True])
    @pytest.mark.parametrize(
        "scheme",
        ["3LC (s=1.00)", "3LC (s=1.75)", "Stoch 3-value + QE", "8-bit int", "2 local steps"],
    )
    def test_matches_the_wrapped_context_over_the_flat_bucket(self, scheme, lossy):
        scheme = make_compressor(scheme, seed=2)
        fused = scheme.make_fused_context(self.BUCKET, key=("t", 2), lossy=lossy)
        shape = (self.BUCKET.total_elements,)
        flat_scheme = make_compressor(scheme.name, seed=2)
        make = flat_scheme.make_context if lossy else flat_scheme.make_bypass_context
        plain = make(shape, key=("t", 2))
        rng = np.random.default_rng(1)
        for _ in range(3):
            tensors = {
                name: rng.normal(size=shape).astype(np.float32)
                for name, shape in zip(self.BUCKET.names, self.BUCKET.shapes)
            }
            got = fused.compress(tensors)
            want = plain.compress(
                np.concatenate([t.reshape(-1) for t in tensors.values()])
            )
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert got.names == self.BUCKET.names
            assert got.message == FusedWireMessage(
                inner=want.message, shapes=self.BUCKET.shapes
            )
            assert got.parts.keys() == tensors.keys()
            for name, part in split_bucket(want.reconstruction, self.BUCKET).items():
                np.testing.assert_array_equal(got.parts[name], part)
            flat = scheme.decompress_fused(got.message, lossy=lossy)
            np.testing.assert_array_equal(flat, want.reconstruction)
            assert fused.residual_norm() == plain.residual_norm()

    def test_only_lossy_buckets_run_the_schemes_codec(self):
        scheme = make_compressor("3LC (s=1.00)", seed=0)
        tensors = {
            name: np.full(shape, 0.5, dtype=np.float32)
            for name, shape in zip(self.BUCKET.names, self.BUCKET.shapes)
        }
        codec_ids = [
            scheme.make_fused_context(self.BUCKET, lossy=lossy)
            .compress(tensors)
            .message.inner.codec_id
            for lossy in (True, False)
        ]
        assert codec_ids == [CodecId.THREELC, CodecId.FLOAT32]


class TestEngineFusionParity:
    """Fusion changes framing, never numerics."""

    def test_identical_training_trajectory(self):
        unfused, fused = make_cluster(False), make_cluster(True)
        unfused.train(6)
        fused.train(6)
        assert [l.train_loss for l in unfused.step_logs] == [
            l.train_loss for l in fused.step_logs
        ]
        assert unfused.model_divergence() == fused.model_divergence()
        for name, value in unfused.service.state_dict().items():
            np.testing.assert_array_equal(value, fused.service.state_dict()[name])

    def test_fewer_frames_and_no_byte_regression(self):
        unfused, fused = make_cluster(False), make_cluster(True)
        unfused.train(6)
        fused.train(6)
        assert fused.traffic.total_messages < unfused.traffic.total_messages
        assert fused.traffic.total_wire_bytes < unfused.traffic.total_wire_bytes
        # Same state-change elements crossed the wire either way.
        assert sum(s.push_elements for s in fused.traffic.steps) == sum(
            s.push_elements for s in unfused.traffic.steps
        )

    def test_lossless_scheme_keeps_replicas_synced_when_fused(self):
        cluster = make_cluster(True, scheme="32-bit float")
        cluster.train(3)
        assert cluster.model_divergence() < 1e-5

    def test_fused_tensors_marked_bypassed(self):
        cluster = make_cluster(True)
        plan = cluster.fusion_plan
        assert plan.fused_names
        assert plan.fused_names <= cluster.service.bypassed
        assert plan.fused_names <= cluster.workers[0].stream.bypassed

    def test_fusion_rejected_on_ring_only(self):
        """The ring has no point-to-point framing to fuse; the sharded
        topology now carries partition-aware plans (tests/exchange/
        test_wireplan.py pins its bit-exactness)."""
        with pytest.raises(ValueError, match="raw gradients per hop"):
            EngineConfig(
                num_workers=2,
                batch_size=8,
                shard_size=32,
                topology="ring",
                fuse_small_tensors=True,
            )
        dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
        engine = ExchangeEngine(
            model_factory,
            dataset,
            make_compressor("3LC (s=1.00)", seed=0),
            CosineDecay(0.05, 4),
            EngineConfig(
                num_workers=2,
                batch_size=8,
                shard_size=32,
                topology="sharded",
                fuse_small_tensors=True,
            ),
        )
        assert engine.fusion_plan.buckets

    def test_lossy_requires_fuse(self):
        with pytest.raises(ValueError, match="requires fuse_small_tensors"):
            EngineConfig(num_workers=2, batch_size=8, shard_size=32, fuse_lossy=True)

    def test_deferring_scheme_composes_with_fusion(self):
        cluster = make_cluster(True, scheme="2 local steps")
        cluster.train(4)
        wire = [s.wire_bytes for s in cluster.traffic.steps]
        assert wire[0] == 0 and wire[2] == 0  # off-steps fully deferred
        assert wire[1] > 0 and wire[3] > 0
