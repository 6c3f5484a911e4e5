"""TrafficMeter frame accounting across fusion modes and topologies.

The per-frame protocol overhead (``StepTimeModel.per_message_overhead``)
is only honest if the meter's frame counts are: every wire message — one
per surviving tensor per direction, one per fused bucket, one per (node,
hop) chunk on the ring — must appear exactly once.
"""

import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import EngineConfig, ExchangeEngine
from repro.network.bandwidth import link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_mlp, build_resnet

STEPS = 3


def train(topology: str, *, fuse: bool = False, workers: int = 2, model="resnet"):
    if model == "resnet":
        factory = lambda: build_resnet(8, base_width=4, seed=1)
    else:
        # Deep-narrow MLP: everything except the input projection is below
        # the bypass threshold, the regime fusion exists for.
        factory = lambda: build_mlp(3 * 12 * 12, (14,) * 6, seed=3)
    engine = ExchangeEngine(
        factory,
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, STEPS),
        EngineConfig(
            num_workers=workers,
            batch_size=8,
            shard_size=32,
            cluster_seed=0,
            topology=topology,
            fuse_small_tensors=fuse,
        ),
    )
    engine.train(STEPS)
    return engine


class TestSingleTopologyFrames:
    def test_per_tensor_counts(self):
        engine = train("single")
        tensors = len(engine.service.params)
        for step in engine.traffic.steps:
            # One frame per tensor per worker push; shared pulls are
            # compressed once but transmitted to every worker (3LC never
            # defers, so every tensor transmits every step).
            assert step.push_messages == tensors * 2
            assert step.pull_messages == tensors
            assert step.frames == tensors * 2 + tensors * step.pull_fanout

    def test_fused_run_pays_fewer_frames_for_same_bytes_order(self):
        unfused = train("single", model="mlp")
        fused = train("single", fuse=True, model="mlp")
        assert fused.traffic.total_messages < unfused.traffic.total_messages
        # Fusion only merges frames; it must not inflate traffic.
        assert fused.traffic.total_wire_bytes <= unfused.traffic.total_wire_bytes

    def test_fused_run_pays_less_frame_overhead(self):
        unfused = train("single", model="mlp")
        fused = train("single", fuse=True, model="mlp")
        model = StepTimeModel(per_message_overhead=1e-4)
        overhead_unfused = sum(
            model.overhead_seconds(s) for s in unfused.traffic.steps
        )
        overhead_fused = sum(model.overhead_seconds(s) for s in fused.traffic.steps)
        assert overhead_fused < overhead_unfused
        # And the per-frame overhead shows up in modelled step time: on an
        # effectively infinite link the byte difference vanishes but the
        # frame difference remains.
        spec = link("1Gbps")
        t_unfused = sum(model.step_seconds(s, spec) for s in unfused.traffic.steps)
        t_fused = sum(model.step_seconds(s, spec) for s in fused.traffic.steps)
        assert t_fused < t_unfused


class TestShardedTopologyFrames:
    def test_sharding_preserves_frame_counts(self):
        # Sharding moves tensors to different NICs but neither splits nor
        # merges messages: frame counts match the single-server run.
        single = train("single")
        sharded = train("sharded")
        for a, b in zip(single.traffic.steps, sharded.traffic.steps):
            assert a.push_messages == b.push_messages
            assert a.pull_messages == b.pull_messages


class TestRingTopologyFrames:
    def test_ring_frame_count_formula(self):
        workers = 2
        engine = train("ring", workers=workers)
        tensors = len(engine.service.params)
        expected = tensors * 2 * (workers - 1) * workers
        for step in engine.traffic.steps:
            assert step.push_messages == expected
            assert step.pull_messages == 0  # no pull phase after all-gather
            assert step.frames == expected

    def test_ring_pays_more_frames_than_point_to_point(self):
        # 2 (N-1) N chunk messages per tensor versus N pushes + 1 pull:
        # the ring's fine-grained chunking is exactly what the per-frame
        # overhead should penalize.
        ring = train("ring")
        single = train("single")
        assert ring.traffic.total_messages > single.traffic.total_messages
