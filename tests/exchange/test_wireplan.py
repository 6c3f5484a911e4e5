"""The wire plan: partition-aware fused buckets on every topology.

The load-bearing assertions:

* a partition-aware plan never lets a bucket span two wire destinations,
  and the sharded plan's destinations match the service's own greedy
  owner map exactly;
* fused sharded and fused hierarchical runs are **bit-exact** with their
  unfused per-tensor counterparts (the exact mode is the lossless bypass
  codec either way — only framing may change) while moving strictly fewer
  wire frames;
* a fixed-seed fused schedule is pinned against regressions
  (``golden_fused_trace.json``, the fused counterpart of
  ``golden_hier_trace.json``);
* async/SSP fused runs record per-update event streams whose bucket
  records the event-driven simulator replays;
* lossy fused buckets (one shared 3LC scale per bucket) trade accuracy
  for strictly less wire traffic than the exact fused path.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.compression.fusion import bucket_label, build_fusion_plan
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import MODELED, EngineConfig, ExchangeEngine
from repro.netsim import EventDrivenSimulator, link_model_for
from repro.netsim.vector import phase_partition
from repro.network.bandwidth import link
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import profile_backward

GOLDEN_PATH = Path(__file__).parent / "golden_fused_trace.json"
GOLDEN_STEPS = 8


def model_factory():
    return build_resnet(8, base_width=4, seed=7)


def make_engine(scheme_name: str = "3LC (s=1.00)", steps: int = 8, **overrides):
    kwargs = dict(num_workers=2, batch_size=8, shard_size=32, cluster_seed=0)
    kwargs.update(overrides)
    return ExchangeEngine(
        model_factory,
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor(scheme_name, seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(**kwargs),
    )


def golden_config(name: str) -> dict:
    """The two fixed-seed configurations the golden trace pins."""
    return {
        "sharded": dict(
            num_workers=2, topology="sharded", num_shards=3,
            fuse_small_tensors=True,
        ),
        "hier": dict(
            num_workers=4, topology="hier", racks=2, rack_size=2,
            fuse_small_tensors=True,
        ),
    }[name]


class TestPartitionAwarePlans:
    def test_buckets_never_span_partition_keys(self):
        shapes = {f"t{i}": (10,) for i in range(8)}
        plan = build_fusion_plan(
            shapes,
            threshold=256,
            bucket_elements=1024,
            partition=lambda name: int(name[1:]) % 3,
        )
        assert plan.fused_names == set(shapes)
        for bucket in plan.buckets:
            keys = {int(name[1:]) % 3 for name in bucket.names}
            assert len(keys) == 1
            assert bucket.group == keys.pop()

    def test_capacity_respected_within_partition(self):
        plan = build_fusion_plan(
            {f"t{i}": (100,) for i in range(6)},
            threshold=256,
            bucket_elements=250,
            partition=lambda name: int(name[1:]) % 2,
        )
        # Per destination: three 100-element tensors -> (2, 1) split.
        assert [b.names for b in plan.buckets] == [
            ("t0", "t2"), ("t4",), ("t1", "t3"), ("t5",),
        ]
        assert [b.index for b in plan.buckets] == [0, 1, 2, 3]

    def test_sharded_wire_plan_matches_service_owner_map(self):
        engine = make_engine(
            topology="sharded", num_shards=3, fuse_small_tensors=True,
            sim_overlap=True,
        )
        engine.train(1)
        plan, service = engine.fusion_plan, engine.service
        records = engine.transmissions[0].records
        routes = {record.name: record.route for record in records}
        assert plan.buckets
        for bucket in plan.buckets:
            assert {service.shard_of(n) for n in bucket.names} == {bucket.group}
            assert routes[bucket_label(bucket.index)] == f"shard{bucket.group}"
        # The shared pull is shard-major: every shard's per-tensor frames,
        # then every shard's buckets.
        pulls = [record.name for record in records if record.phase == "pull"]
        assert pulls == list(service.stream.contexts)
        tensors = [label for label in pulls if label in service.params]
        buckets = pulls[len(tensors):]
        assert sorted(buckets) == sorted(bucket_label(b.index) for b in plan.buckets)
        for part, owner in (
            (tensors, service.shard_of),
            (buckets, lambda label: plan.bucket(int(label.split(":")[1])).group),
        ):
            owners = [owner(label) for label in part]
            assert owners == sorted(owners)

    def test_spanning_plan_rejected_by_sharded_service(self):
        # A plan built without the topology's partition must be refused:
        # its buckets would need two wire destinations.
        from repro.distributed.sharding import ShardedParameterService
        from repro.nn.optimizer import MomentumSGD

        params = list(model_factory().parameters())
        flat_plan = build_fusion_plan(
            {p.name: p.shape for p in params},
            threshold=256,
            bucket_elements=1 << 20,
        )
        with pytest.raises(ValueError, match="spans shards"):
            ShardedParameterService(
                params,
                MomentumSGD(),
                CosineDecay(0.05, 4),
                make_compressor("3LC (s=1.00)", seed=0),
                num_workers=2,
                num_shards=3,
                fusion_plan=flat_plan,
            )


class TestPushFrameSetIsChecked:
    """A push must hold exactly the frames the wire plan expects: a missing
    or unknown frame names its label and the sender's position instead of
    silently skipping the tensor (the step used to complete and ship a
    zero pull frame)."""

    @pytest.fixture(params=["single", "sharded"])
    def topology(self, request):
        return request.param

    @pytest.fixture(params=[False, True], ids=["plan off", "plan on"])
    def pushes(self, request, topology):
        engine = make_engine(
            topology=topology, num_shards=3, fuse_small_tensors=request.param
        )
        assert bool(engine.fusion_plan.buckets) == request.param
        pushes = [dict(worker.train_step().messages) for worker in engine.workers]
        engine.service.step(pushes)  # the untampered set is accepted
        return engine.service, pushes

    def test_missing_frame_names_label_and_sender(self, pushes):
        service, pushes = pushes
        for label in (next(iter(pushes[1])), next(reversed(pushes[1]))):
            tampered = [dict(push) for push in pushes]
            del tampered[1][label]
            before = service.state_dict()
            with pytest.raises(ValueError, match="sender 1") as raised:
                service.step(tampered)
            assert repr(label) in str(raised.value)
            for name, value in service.state_dict().items():
                np.testing.assert_array_equal(value, before[name])

    def test_unknown_frame_names_label_and_sender(self, pushes):
        service, pushes = pushes
        tampered = [dict(push) for push in pushes]
        tampered[0]["bucket:99"] = next(iter(pushes[0].values()))
        with pytest.raises(ValueError, match="sender 0") as raised:
            service.step(tampered)
        assert "'bucket:99'" in str(raised.value)


class TestFusedShardedParity:
    """Fusion changes framing, never numerics — now on the sharded service."""

    @pytest.mark.parametrize("scheme", ["3LC (s=1.00)", "32-bit float"])
    def test_bit_exact_with_unfused(self, scheme):
        unfused = make_engine(scheme, topology="sharded", num_shards=3)
        fused = make_engine(
            scheme, topology="sharded", num_shards=3, fuse_small_tensors=True
        )
        unfused.train(6)
        fused.train(6)
        assert [l.train_loss for l in unfused.step_logs] == [
            l.train_loss for l in fused.step_logs
        ]
        u_state, f_state = unfused.service.state_dict(), fused.service.state_dict()
        assert all(np.array_equal(u_state[k], f_state[k]) for k in u_state)
        assert unfused.model_divergence() == fused.model_divergence()

    def test_fewer_frames_same_elements(self):
        unfused = make_engine(topology="sharded", num_shards=3)
        fused = make_engine(
            topology="sharded", num_shards=3, fuse_small_tensors=True
        )
        unfused.train(6)
        fused.train(6)
        assert fused.traffic.total_messages < unfused.traffic.total_messages
        assert fused.traffic.total_wire_bytes < unfused.traffic.total_wire_bytes
        assert sum(s.push_elements for s in fused.traffic.steps) == sum(
            s.push_elements for s in unfused.traffic.steps
        )

    def test_recorded_routes_are_per_shard(self):
        fused = make_engine(
            topology="sharded",
            num_shards=3,
            fuse_small_tensors=True,
            sim_overlap=True,
        )
        fused.train(2)
        st = fused.transmissions[0]
        bucket_records = [r for r in st.records if r.name.startswith("bucket:")]
        assert bucket_records
        plan = fused.fusion_plan
        for record in bucket_records:
            index = int(record.name.split(":")[1])
            assert record.route == f"shard{plan.bucket(index).group}"
            assert record.params == plan.bucket(index).names


class TestFusedHierParity:
    @pytest.mark.parametrize(
        "sync",
        [dict(), dict(sync_mode="ssp", staleness=1, clock=MODELED)],
        ids=["bsp", "ssp1"],
    )
    def test_bit_exact_with_unfused(self, sync):
        kwargs = dict(num_workers=4, topology="hier", racks=2, rack_size=2, **sync)
        unfused = make_engine(**kwargs)
        fused = make_engine(fuse_small_tensors=True, **kwargs)
        unfused.train(6)
        fused.train(6)
        assert [l.train_loss for l in unfused.step_logs] == [
            l.train_loss for l in fused.step_logs
        ]
        u_state, f_state = unfused.service.state_dict(), fused.service.state_dict()
        assert all(np.array_equal(u_state[k], f_state[k]) for k in u_state)

    def test_split_still_partitions_wire_bytes(self):
        fused = make_engine(
            num_workers=4, topology="hier", racks=2, rack_size=2,
            fuse_small_tensors=True,
        )
        fused.train(4)
        for s in fused.traffic.steps:
            assert s.intra_rack_bytes + s.cross_rack_bytes == s.wire_bytes

    def test_fewer_cross_frames_than_unfused(self):
        """Fusion shrinks the *cross tier's* frame count: the rack rings
        still move one chunk per hop, but the uplink carries one frame
        per bucket per rack instead of one per small tensor."""
        kwargs = dict(num_workers=4, topology="hier", racks=2, rack_size=2)
        unfused = make_engine(**kwargs)
        fused = make_engine(fuse_small_tensors=True, **kwargs)
        unfused.train(3)
        fused.train(3)
        assert fused.traffic.total_messages < unfused.traffic.total_messages
        # Byte totals also shrink (fewer frame headers, same payloads).
        assert fused.traffic.total_wire_bytes < unfused.traffic.total_wire_bytes

    def test_recorded_fused_uplink_depends_on_rack_collectives(self):
        fused = make_engine(
            num_workers=4, topology="hier", racks=2, rack_size=2,
            fuse_small_tensors=True, sim_overlap=True,
        )
        fused.train(2)
        st = fused.transmissions[0]
        ups = [
            r for r in st.records
            if r.phase == "push" and r.name.startswith("bucket:")
        ]
        assert ups
        for record in ups:
            rack = int(record.name.split("@up")[1])
            assert record.route == f"cross:rack{rack}"
            assert set(record.depends_on) == {
                f"{name}@rack{rack}" for name in record.params
            }
        downs = [
            r for r in st.records
            if r.phase == "pull"
            and r.name.startswith("bucket:")
            and not r.depends_on
        ]
        bcasts = [
            r for r in st.records
            if r.phase == "pull" and r.name.startswith("bucket:") and r.depends_on
        ]
        # One down copy per rack per bucket on that rack's own uplink,
        # each feeding exactly one rack-ring broadcast.
        assert downs and len(bcasts) == len(downs)
        assert {r.route for r in downs} == {"cross:rack0", "cross:rack1"}


class TestGoldenFusedTrace:
    """The fixed-seed fused schedules are pinned exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("name", ["sharded", "hier"])
    def test_schedule_matches_golden(self, golden, name):
        expected = golden[name]
        engine = make_engine(steps=GOLDEN_STEPS, **golden_config(name))
        engine.train(GOLDEN_STEPS)
        assert [log.train_loss for log in engine.step_logs] == pytest.approx(
            expected["train_loss"], rel=0, abs=0
        )
        steps = engine.traffic.steps
        assert [s.push_bytes for s in steps] == expected["push_bytes"]
        assert [s.pull_bytes_shared for s in steps] == expected["pull_bytes_shared"]
        assert [s.push_messages for s in steps] == expected["push_messages"]
        assert [s.pull_messages for s in steps] == expected["pull_messages"]


class TestAsyncFusedPullStreams:
    def make_async(self, fuse: bool, **overrides):
        return make_engine(
            sync_mode="async",
            clock=MODELED,
            fuse_small_tensors=fuse,
            sim_overlap=True,
            **overrides,
        )

    def test_bit_exact_with_unfused_async(self):
        unfused, fused = self.make_async(False), self.make_async(True)
        unfused.train(8)
        fused.train(8)
        assert [l.train_loss for l in unfused.step_logs] == [
            l.train_loss for l in fused.step_logs
        ]
        u_state, f_state = unfused.service.state_dict(), fused.service.state_dict()
        assert all(np.array_equal(u_state[k], f_state[k]) for k in u_state)

    def test_events_carry_fused_records_both_phases(self):
        fused = self.make_async(True)
        fused.train(6)
        assert len(fused.update_events) == 6
        for event in fused.update_events:
            pushes, pulls = phase_partition(event.records)
            fused_pushes = [r for r in pushes if r.name.startswith("bucket:")]
            fused_pulls = [r for r in pulls if r.name.startswith("bucket:")]
            assert fused_pushes and fused_pulls
            for record in fused_pushes + fused_pulls:
                assert len(record.params) > 1
                assert record.frames == 1

    def test_fused_events_replay_through_event_simulator(self):
        fused = self.make_async(True)
        fused.train(8)
        dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
        timeline = profile_backward(model_factory(), *dataset.train_shard(0, 8))
        simulator = EventDrivenSimulator(
            timeline,
            link_model_for("single", link("100Mbps")),
            staleness=None,
            overlap=True,
        )
        exchange = simulator.simulate(fused.update_events)
        assert len(exchange.updates) == 8
        assert exchange.total_seconds > 0
        # Fewer frames than the unfused stream -> less per-frame overhead.
        unfused = self.make_async(False)
        unfused.train(8)
        baseline = simulator.simulate(unfused.update_events)
        assert sum(r.frames for e in fused.update_events for r in e.records) < sum(
            r.frames for e in unfused.update_events for r in e.records
        )
        assert exchange.overhead_seconds < baseline.overhead_seconds

    def test_ssp_fused_respects_staleness(self):
        engine = make_engine(
            sync_mode="ssp",
            staleness=1,
            clock=MODELED,
            fuse_small_tensors=True,
        )
        engine.train(10)
        assert engine.max_staleness_observed() <= 2

    def test_hier_async_fused_records_rack_granular_buckets(self):
        engine = make_engine(
            num_workers=4, topology="hier", racks=2, rack_size=2,
            sync_mode="async", clock=MODELED,
            fuse_small_tensors=True, sim_overlap=True,
        )
        engine.train(6)
        assert {e.worker for e in engine.update_events} == {0, 1}
        for event in engine.update_events:
            pushes, pulls = phase_partition(event.records)
            ups = [r for r in pushes if r.name.startswith("bucket:")]
            downs = [
                r for r in pulls if r.name.startswith("bucket:") and "@down" in r.name
            ]
            bcasts = [
                r for r in pulls if r.name.startswith("bucket:") and "@bcast" in r.name
            ]
            assert ups and downs and len(downs) == len(bcasts)
            assert all(r.depends_on for r in ups + bcasts)
        for s in engine.traffic.steps:
            assert s.intra_rack_bytes + s.cross_rack_bytes == s.wire_bytes


class TestLossyFusedBuckets:
    def test_lossy_moves_fewer_bytes_than_exact(self):
        exact = make_engine(fuse_small_tensors=True)
        lossy = make_engine(fuse_small_tensors=True, fuse_lossy=True)
        exact.train(6)
        lossy.train(6)
        assert lossy.traffic.total_wire_bytes < exact.traffic.total_wire_bytes
        # Same framing plan: frame counts match, only payloads shrink.
        assert lossy.traffic.total_messages == exact.traffic.total_messages
        assert all(np.isfinite(l.train_loss) for l in lossy.step_logs)

    def test_lossy_error_feedback_keeps_divergence_bounded(self):
        lossy = make_engine(fuse_small_tensors=True, fuse_lossy=True)
        lossy.train(8)
        # Error feedback corrects quantization across steps: replicas stay
        # within pull-compression distance of the global model, they do
        # not drift unboundedly.
        assert lossy.model_divergence() < 1.0

    def test_lossy_buckets_carry_residual_state(self):
        lossy = make_engine(fuse_small_tensors=True, fuse_lossy=True)
        lossy.train(4)
        norms = lossy.workers[0].residual_norms()
        fused_norms = [
            value for key, value in norms.items() if key.startswith("fused-")
        ]
        assert fused_norms and any(value > 0 for value in fused_norms)

    def test_lossy_composes_with_sharded_and_async(self):
        sharded = make_engine(
            topology="sharded", num_shards=3,
            fuse_small_tensors=True, fuse_lossy=True,
        )
        sharded.train(4)
        assert all(np.isfinite(l.train_loss) for l in sharded.step_logs)
        a = make_engine(
            sync_mode="async", clock=MODELED,
            fuse_small_tensors=True, fuse_lossy=True,
        )
        a.train(6)
        assert all(np.isfinite(l.train_loss) for l in a.step_logs)
