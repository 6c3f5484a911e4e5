"""Tests for the event-driven (async/SSP) simulator.

The load-bearing assertions:

* **staleness-0 parity** (the acceptance criterion): reshaping a BSP
  recording into the lock-step update stream an SSP(0) system would
  execute and replaying it event-driven reproduces the BSP serialized
  schedule's total step time within 1e-9, on the single, sharded, and
  ring topologies — anchoring the event-driven modes to the calibrated
  BSP path;
* shared links are FIFO: a second worker's push physically queues behind
  the first's;
* SSP staleness bounds *block*: simulated compute starts respect the
  gate. A tighter bound is not always slower: gating a fast worker can
  move its server time off a straggler's critical path (the pinned
  counterexample is in ``test_event_parity.py``);
* the reports (per-worker throughput, staleness distribution, link
  utilization) are internally consistent.
"""

import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.exchange import MODELED, EngineConfig, ExchangeEngine
from repro.netsim import (
    EventDrivenSimulator,
    NetworkSimulator,
    SimulatedExchange,
    TransmissionRecord,
    UpdateTransmissions,
    link_model_for,
    single_server_links,
    updates_from_bsp_steps,
)
from repro.netsim.vector import phase_partition
from repro.network.bandwidth import LinkSpec, link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import BackwardTimeline, LayerTiming, profile_backward

MBPS = LinkSpec("1Mbps", 1e6)  # 125 kB/s: a 125000-byte push takes 1 s

SIMPLE_TIMELINE = BackwardTimeline(
    (LayerTiming("top", 0.5, ("b",)), LayerTiming("bottom", 0.5, ("a",)))
)

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=0.05, codec_scale=0.5
)


def make_update(
    update: int,
    worker: int,
    local_step: int,
    *,
    compute: float = 1.0,
    push_bytes: int = 125_000,
    pull_bytes: int = 0,
    staleness: int = 0,
) -> UpdateTransmissions:
    records = [
        TransmissionRecord(
            name="b",
            params=("b",),
            wire_bytes=push_bytes,
            elements=100,
            route="server",
            worker=worker,
        )
    ]
    if pull_bytes:
        records.append(
            TransmissionRecord(
                name="b",
                params=("b",),
                wire_bytes=pull_bytes,
                elements=100,
                route="server",
                worker=worker,
                phase="pull",
            )
        )
    return UpdateTransmissions(
        update=update,
        worker=worker,
        local_step=local_step,
        global_step=update,
        staleness=staleness,
        clock_seconds=0.0,
        compute_seconds=compute,
        records=tuple(records),
    )


def train_engine(topology: str = "single", sync_mode: str = "bsp", steps: int = 4, **overrides):
    config = dict(
        num_workers=2,
        batch_size=8,
        shard_size=32,
        cluster_seed=0,
        topology=topology,
        sync_mode=sync_mode,
        sim_overlap=True,
        clock=MODELED,
    )
    config.update(overrides)
    engine = ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=1),
        SyntheticImageDataset(DatasetSpec(image_size=12, seed=0)),
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(**config),
    )
    engine.train(steps)
    return engine


@pytest.fixture(scope="module")
def timeline():
    model = build_resnet(8, base_width=4, seed=1)
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    images, labels = dataset.train_shard(0, 8)
    return profile_backward(model, images, labels)


class TestStalenessZeroParity:
    """Acceptance: SSP(0) event schedule == BSP serialized schedule."""

    @pytest.mark.parametrize("topology", ["single", "sharded", "ring"])
    def test_lockstep_matches_bsp_serialized_total(self, topology, timeline):
        engine = train_engine(topology)
        for link_name in ("10Mbps", "1Gbps"):
            model = link_model_for(
                topology, link(link_name), num_shards=2, num_workers=2
            )
            bsp = NetworkSimulator(
                timeline, model, TIME_MODEL, overlap=False
            ).simulate_run(engine.transmissions)
            events = updates_from_bsp_steps(engine.transmissions, 2)
            lockstep = EventDrivenSimulator(
                timeline, model, TIME_MODEL, staleness=0, overlap=False
            ).simulate(events)
            assert lockstep.total_seconds == pytest.approx(
                bsp.total_seconds, rel=1e-9
            )

    @pytest.mark.parametrize("topology", ["single", "sharded", "ring"])
    def test_lockstep_matches_bsp_overlapped_total(self, topology, timeline):
        # The equivalence also holds with per-layer overlap on: each
        # generation replays through the same overlap machinery.
        engine = train_engine(topology)
        model = link_model_for(topology, link("10Mbps"), num_shards=2, num_workers=2)
        bsp = NetworkSimulator(
            timeline, model, TIME_MODEL, overlap=True, serialized_baseline=False
        ).simulate_run(engine.transmissions)
        lockstep = EventDrivenSimulator(
            timeline, model, TIME_MODEL, staleness=0, overlap=True
        ).simulate(updates_from_bsp_steps(engine.transmissions, 2))
        assert lockstep.total_seconds == pytest.approx(bsp.total_seconds, rel=1e-9)

    def test_bsp_steps_split_losslessly(self):
        engine = train_engine("single")
        events = updates_from_bsp_steps(engine.transmissions, 2)
        for st in engine.transmissions:
            generation = [e for e in events if e.local_step == st.step]
            assert len(generation) == 2
            assert sum(
                r.frames for e in generation for r in e.records
            ) == sum(r.frames for r in st.records)
            assert sum(
                r.total_bytes for e in generation for r in e.records
            ) == sum(r.total_bytes for r in st.records)
            assert sum(e.codec_seconds for e in generation) >= 0


class TestEventLoop:
    def sim(self, staleness=None, overlap=True, link_model=None):
        return EventDrivenSimulator(
            SIMPLE_TIMELINE,
            link_model or single_server_links(MBPS),
            StepTimeModel(per_message_overhead=0.0),
            staleness=staleness,
            overlap=overlap,
        )

    def test_shared_link_is_fifo(self):
        # Two workers, one update each, equal compute: both pushes are
        # ready at t=1 and serialize on the shared 1 s/transfer link.
        exchange = self.sim(overlap=False).simulate(
            [make_update(0, 0, 0), make_update(1, 1, 0)]
        )
        done = sorted(u.commit_seconds for u in exchange.updates)
        assert done[0] == pytest.approx(2.0)
        assert done[1] == pytest.approx(3.0)
        assert exchange.total_seconds == pytest.approx(3.0)

    def test_overlap_hides_transfer_behind_other_workers_compute(self):
        # Worker 0's gradient "b" is ready at t=0.5 (per-layer overlap);
        # its transfer runs while both workers still compute.
        exchange = self.sim(overlap=True).simulate(
            [make_update(0, 0, 0), make_update(1, 1, 0)]
        )
        assert exchange.total_seconds < 3.0
        assert 0.0 < exchange.achieved_overlap <= 1.0

    def test_async_workers_free_run(self):
        # Unbounded staleness: a worker never waits for the other's commits.
        updates = [
            make_update(i, i % 2, i // 2, staleness=i % 3) for i in range(8)
        ]
        exchange = self.sim(staleness=None).simulate(updates)
        assert isinstance(exchange, SimulatedExchange)
        assert exchange.per_worker_updates == {0: 4, 1: 4}
        assert exchange.staleness_histogram == {0: 3, 1: 3, 2: 2}
        starts = {
            w: [u.start_seconds for u in exchange.updates if u.worker == w]
            for w in (0, 1)
        }
        for series in starts.values():  # per-worker clocks move forward
            assert series == sorted(series)

    def test_ssp_gate_blocks_fast_worker(self):
        # Worker 0 computes 4x faster. Under staleness=1 it may lead by at
        # most one local step: its step-k compute cannot start before the
        # slow worker committed step k-1.
        updates = []
        for k in range(3):
            updates.append(make_update(2 * k, 0, k, compute=0.25))
            updates.append(make_update(2 * k + 1, 1, k, compute=1.0))
        bounded = self.sim(staleness=1).simulate(updates)
        commits = {
            (u.worker, i): u.commit_seconds
            for w in (0, 1)
            for i, u in enumerate(
                [u for u in bounded.updates if u.worker == w]
            )
        }
        starts = {
            (u.worker, i): u.start_seconds
            for w in (0, 1)
            for i, u in enumerate(
                [u for u in bounded.updates if u.worker == w]
            )
        }
        # Starting local step k needs every worker's committed count to
        # reach k - 1, i.e. the slow worker's commit of index k - 2.
        for k in range(2, 3):
            assert starts[(0, k)] >= commits[(1, k - 2)] - 1e-12
        free = self.sim(staleness=None).simulate(updates)
        assert free.total_seconds <= bounded.total_seconds + 1e-12

    def test_tighter_staleness_slows_a_link_bound_straggler(self):
        # Here every update contends for one link, so each tighter bound
        # adds waiting; this is a property of the stream, not a law.
        updates = []
        for k in range(4):
            updates.append(make_update(2 * k, 0, k, compute=0.1))
            updates.append(make_update(2 * k + 1, 1, k, compute=1.0))
        times = [
            self.sim(staleness=s).simulate(updates).total_seconds
            for s in (3, 1, 0)
        ]
        assert times == sorted(times)

    def test_pulls_traverse_the_link(self):
        no_pull = self.sim(overlap=False).simulate([make_update(0, 0, 0)])
        with_pull = self.sim(overlap=False).simulate(
            [make_update(0, 0, 0, pull_bytes=125_000)]
        )
        assert with_pull.total_seconds == pytest.approx(
            no_pull.total_seconds + 1.0
        )

    def test_reports_are_consistent(self):
        updates = [make_update(i, i % 2, i // 2) for i in range(6)]
        exchange = self.sim(staleness=2).simulate(updates)
        assert exchange.mean_update_seconds == pytest.approx(
            exchange.total_seconds / 6
        )
        assert sum(exchange.per_worker_updates.values()) == 6
        assert sum(exchange.staleness_histogram.values()) == 6
        assert set(exchange.link_utilization) == {"server"}
        assert 0.0 < exchange.link_utilization["server"] <= 1.0
        assert exchange.serialized_seconds >= exchange.total_seconds - 1e-12

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="sim_overlap"):
            self.sim().simulate([])

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError, match="staleness"):
            self.sim(staleness=-1)

    @pytest.mark.parametrize(
        "staleness", [-1, 1.5, True, float("nan"), "2"], ids=repr
    )
    def test_staleness_outside_the_engine_rule_rejected(self, staleness):
        with pytest.raises(ValueError) as raised:
            self.sim(staleness=staleness)
        assert str(raised.value) == (
            f"staleness must be None or an integer >= 0, got {staleness!r}"
        )


class TestEngineEventStreamThroughSimulator:
    """End to end: recorded async/SSP engine streams replay cleanly."""

    def test_async_stream_simulates(self, timeline):
        engine = train_engine(sync_mode="async", steps=6)
        assert len(engine.update_events) == 6
        assert engine.transmissions == []  # BSP plans stay BSP-only
        exchange = EventDrivenSimulator(
            timeline,
            single_server_links(link("10Mbps")),
            TIME_MODEL,
            staleness=None,
            overlap=True,
        ).simulate(engine.update_events)
        assert len(exchange.updates) == 6
        assert exchange.total_seconds > 0
        assert max(exchange.staleness_histogram) >= 1  # two workers interleave

    def test_ssp_stream_simulates_with_gate(self, timeline):
        engine = train_engine(sync_mode="ssp", staleness=1, steps=6)
        exchange = EventDrivenSimulator(
            timeline,
            single_server_links(link("10Mbps")),
            TIME_MODEL,
            staleness=1,
            overlap=True,
        ).simulate(engine.update_events)
        assert len(exchange.updates) == 6
        # Local-step leads in the simulated schedule respect the bound.
        for u in exchange.updates:
            assert u.done_seconds >= u.commit_seconds >= u.start_seconds

    def test_recorded_bytes_match_traffic_meter(self):
        engine = train_engine(sync_mode="async", steps=4)
        for event, traffic in zip(engine.update_events, engine.traffic.steps):
            pushes, pulls = phase_partition(event.records)
            push = sum(r.total_bytes for r in pushes)
            pull = sum(r.total_bytes for r in pulls)
            assert push == traffic.push_bytes
            assert pull == traffic.pull_bytes_total
            assert event.codec_seconds == pytest.approx(traffic.codec_seconds)
