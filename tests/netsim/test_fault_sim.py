"""Netsim replay of injected faults, and the fault knobs' cache keys.

Three concerns share this module because they guard the same seam —
what a churned run records and how downstream layers consume it:

* outage replay: ``StepTransmissions.link_down`` floors must be honored
  identically by the scalar, vectorized, and event-driven cores, and
  traced replays must put the outage window on its own ``outage:``
  track so link-utilization accounting stays undisturbed;
* cache fingerprints: every fault-relevant knob (``backup_workers``,
  the straggler spec, the fault spec) must invalidate the sweep-replay
  recording cache — a hit across differing churn would replay the
  wrong wire plan;
* archives: churn fields round-trip through results_io (and legacy
  archives without them still load) and traced faulted runs export
  valid Chrome traces even when training aborts mid-step.
"""

import json

import numpy as np
import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.barriers import StragglerSpec
from repro.distributed.faults import FaultSpec, UplinkFlap, WorkerCrash
from repro.exchange import MODELED, EngineConfig, ExchangeEngine
from repro.harness.config import FAST_CONFIG
from repro.harness.results_io import run_result_from_dict, run_result_to_dict
from repro.harness.runner import ExperimentRunner
from repro.netsim import (
    EventDrivenSimulator,
    NetworkSimulator,
    link_model_for,
    updates_from_bsp_steps,
)
from repro.netsim.events import StepTransmissions, TransmissionRecord
from repro.network.bandwidth import link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import profile_backward
from repro.telemetry import Telemetry, Tracer, trace_training
from repro.telemetry.export import chrome_trace, write_chrome_trace
from repro.telemetry.validate import validate_chrome_trace

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=0.05, codec_scale=0.5
)

CORE_PARITY = 1e-6


def _dataset():
    return SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))


def _timeline():
    return profile_backward(
        build_resnet(8, base_width=4, seed=7), *_dataset().train_shard(0, 8)
    )


def train_faulted(topology, fault, steps=6, **extra):
    """Train a small faulted engine with transmission recording on."""
    kwargs = dict(
        num_workers=4,
        batch_size=8,
        shard_size=64,
        cluster_seed=0,
        topology=topology,
        fault=fault,
        sim_overlap=True,
    )
    if topology == "hier":
        kwargs.update(racks=2, rack_size=2)
    kwargs.update(extra)
    engine = ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=7),
        _dataset(),
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(**kwargs),
    )
    engine.train(steps)
    return engine


class TestOutageReplay:
    def _synthetic_steps(self):
        record = TransmissionRecord(
            name="grad",
            params=("grad",),
            wire_bytes=125_000,
            elements=1000,
            route="server",
        )
        shared = dict(
            compute_seconds=0.01,
            push_compress_seconds=0.0,
            server_decompress_seconds=0.0,
            server_compress_seconds=0.0,
            pull_decompress_seconds=0.0,
            records=(record,),
        )
        base = StepTransmissions(step=0, **shared)
        floored = StepTransmissions(
            step=0, link_down=(("server", 0.5),), **shared
        )
        return base, floored

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_synthetic_floor_delays_the_step(self, vectorized):
        """A link-down floor holds all of a route's transfers back."""
        base, floored = self._synthetic_steps()
        sim = NetworkSimulator(
            _timeline(),
            link_model_for("single", link("100Mbps"), num_workers=4),
            TIME_MODEL,
            overlap=False,
            serialized_baseline=False,
            vectorized=vectorized,
        )
        plain = sim.simulate_run((base,)).steps[0].step_seconds
        held = sim.simulate_run((floored,)).steps[0].step_seconds
        assert held >= 0.5
        assert held > plain

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError, match="link_down"):
            StepTransmissions(
                step=0,
                compute_seconds=0.0,
                push_compress_seconds=0.0,
                server_decompress_seconds=0.0,
                server_compress_seconds=0.0,
                pull_decompress_seconds=0.0,
                records=(),
                link_down=(("server", -1.0),),
            )

    @pytest.mark.parametrize("topology", ["single", "sharded"])
    def test_crash_stream_cores_agree(self, topology):
        """All three cores replay a crash/rejoin stream identically.

        The rejoin step carries the full-model resync on the pull phase;
        the scalar and vectorized replays must agree per step, and the
        event-driven core (lockstep at staleness=0) must agree on the
        serialized total. The event fold only models flat
        parameter-server streams (``updates_from_bsp_steps`` drops
        rack-collective records), so hier is excluded by design.
        """
        fault = FaultSpec(crashes=(WorkerCrash(worker=1, step=2, down_steps=2),))
        # Modeled clock: the recorded compute and codec seconds are a
        # function of the seed, so host load cannot outweigh the resync.
        engine = train_faulted(topology, fault, clock=MODELED)
        rejoin = engine.transmissions[4]
        resync = [r for r in rejoin.records if r.name.startswith("resync:")]
        assert resync and all(r.phase == "pull" for r in resync)
        assert (
            sum(r.wire_bytes for r in resync)
            == engine.traffic.steps[4].resync_bytes
        )

        timeline = _timeline()
        lm = link_model_for(topology, link("100Mbps"), num_workers=4)
        scalar = NetworkSimulator(
            timeline, lm, TIME_MODEL,
            overlap=False, serialized_baseline=False, vectorized=False,
        ).simulate_run(engine.transmissions)
        vector = NetworkSimulator(
            timeline, lm, TIME_MODEL,
            overlap=False, serialized_baseline=False, vectorized=True,
        ).simulate_run(engine.transmissions)
        for a, b in zip(scalar.steps, vector.steps):
            assert abs(a.step_seconds - b.step_seconds) <= CORE_PARITY
        # The resync makes the rejoin step strictly slower than its twin
        # one step later (same live set, no resync).
        assert scalar.steps[4].step_seconds > scalar.steps[5].step_seconds

        event = EventDrivenSimulator(
            timeline, lm, TIME_MODEL, staleness=0, overlap=False
        ).simulate(updates_from_bsp_steps(engine.transmissions, 4))
        assert abs(event.total_seconds - scalar.total_seconds) <= CORE_PARITY

    @pytest.mark.parametrize("overlap", [False, True])
    def test_flap_stream_scalar_vector_parity(self, overlap):
        """A flap's rejoin-delay floor survives into the replay and both
        replay cores price it identically."""
        fault = FaultSpec(
            flaps=(
                UplinkFlap(rack=1, step=2, down_steps=2,
                           rejoin_delay_seconds=0.4),
            )
        )
        engine = train_faulted("hier", fault)
        flooded = [st for st in engine.transmissions if st.link_down]
        assert len(flooded) == 1 and flooded[0].step == 4
        assert flooded[0].link_down == (("cross:rack1", 0.4),)

        lm = link_model_for("hier", link("100Mbps"), racks=2, rack_size=2)
        # One timeline for both cores: profile_backward measures real
        # wall time, so two profiles differ in their layer fractions.
        timeline = _timeline()
        runs = [
            NetworkSimulator(
                timeline, lm, TIME_MODEL,
                overlap=overlap, serialized_baseline=False,
                vectorized=vectorized,
            ).simulate_run(engine.transmissions)
            for vectorized in (False, True)
        ]
        for a, b in zip(runs[0].steps, runs[1].steps):
            assert abs(a.step_seconds - b.step_seconds) <= CORE_PARITY
        # The rejoin step pays at least the fabric re-convergence floor.
        assert runs[0].steps[4].step_seconds >= 0.4

    def test_outage_spans_ride_dedicated_tracks(self):
        """Outage windows trace as ``outage:<route>``, not
        ``link:<route>`` — link busy-seconds must keep reconciling with
        utilization."""
        fault = FaultSpec(
            flaps=(
                UplinkFlap(rack=1, step=2, down_steps=2,
                           rejoin_delay_seconds=0.4),
            )
        )
        engine = train_faulted("hier", fault)
        lm = link_model_for("hier", link("100Mbps"), racks=2, rack_size=2)
        tracer = Tracer()
        NetworkSimulator(
            _timeline(), lm, TIME_MODEL,
            overlap=True, serialized_baseline=False,
            tracer=tracer, trace_group="sim",
        ).simulate_run(engine.transmissions)
        outage = [s for s in tracer.spans if s.track.startswith("outage:")]
        assert outage, "expected an outage span for the rejoin floor"
        assert all(s.name == "link-down" for s in outage)


class TestRecordingKeyFingerprint:
    """Regression: fault-relevant knobs must split the recording cache.

    A :class:`SweepReplayCache` hit replays the cached wire plan without
    rebuilding the engine, so any knob that changes training dynamics or
    the recorded plan must land in the fingerprint. These knobs once did
    not.
    """

    BASE = FAST_CONFIG.scaled(standard_steps=6, num_workers=4)

    def _key(self, config):
        return ExperimentRunner(config)._recording_key("3LC (s=1.00)", 6)

    def test_backup_workers_invalidates(self):
        assert self._key(self.BASE) != self._key(
            self.BASE.scaled(backup_workers=1)
        )

    def test_straggler_invalidates(self):
        assert self._key(self.BASE) != self._key(
            self.BASE.scaled(straggler=StragglerSpec(seed=3))
        )

    def test_fault_invalidates(self):
        fault = FaultSpec(crashes=(WorkerCrash(worker=1, step=2),))
        assert self._key(self.BASE) != self._key(self.BASE.scaled(fault=fault))

    def test_checkpoint_mode_invalidates(self):
        crashes = (WorkerCrash(worker=1, step=2),)
        a = self.BASE.scaled(fault=FaultSpec(crashes=crashes))
        b = self.BASE.scaled(
            fault=FaultSpec(crashes=crashes, checkpoint_state=False)
        )
        assert self._key(a) != self._key(b)

    def test_sim_only_knobs_still_canonicalize(self):
        """The churn knobs must not break sweep sharing: points differing
        only in network-model knobs keep hitting the same recording."""
        fault = FaultSpec(crashes=(WorkerCrash(worker=1, step=2),))
        a = self.BASE.scaled(fault=fault, cross_bw_fraction=0.5)
        b = self.BASE.scaled(fault=fault, cross_bw_fraction=0.2)
        assert self._key(a) == self._key(b)


class TestChurnArchives:
    def test_fault_summary_round_trips(self):
        fault = FaultSpec(
            crashes=(WorkerCrash(worker=1, step=2, down_steps=2),)
        )
        runner = ExperimentRunner(
            FAST_CONFIG.scaled(standard_steps=6, fault=fault)
        )
        result = runner.run("3LC (s=1.00)")
        assert result.fault_summary is not None
        assert result.fault_summary["crashes"] == 1
        assert result.traffic.total_resync_bytes > 0
        restored = run_result_from_dict(
            json.loads(json.dumps(run_result_to_dict(result)))
        )
        assert restored.fault_summary == result.fault_summary
        assert (
            restored.traffic.total_resync_bytes
            == result.traffic.total_resync_bytes
        )

    def test_legacy_archive_without_churn_fields_loads(self):
        runner = ExperimentRunner(FAST_CONFIG.scaled(standard_steps=6))
        result = runner.run("3LC (s=1.00)")
        legacy = run_result_to_dict(result)
        # A pre-churn archive has neither the summary nor the per-step
        # resync counters.
        del legacy["fault_summary"]
        for step in legacy["traffic_steps"]:
            del step["resync_bytes"]
        loaded = run_result_from_dict(json.loads(json.dumps(legacy)))
        assert loaded.fault_summary is None
        assert loaded.traffic.total_resync_bytes == 0


class TestTracedFaultedRuns:
    def test_faulted_telemetry_run_exports_valid_trace(self, tmp_path):
        """A mid-run fault with telemetry on still produces a schema-valid
        Chrome trace with no dangling spans."""
        fault = FaultSpec(
            crashes=(WorkerCrash(worker=1, step=2, down_steps=2),)
        )
        runner = ExperimentRunner(
            FAST_CONFIG.scaled(
                standard_steps=6, fault=fault,
                sim_overlap=True, telemetry=True,
            )
        )
        result = runner.run("3LC (s=1.00)")
        assert result.fault_summary is not None
        out = tmp_path / "trace.json"
        assert write_chrome_trace(out, runner.telemetry_sessions) > 0
        data = json.loads(out.read_text())
        assert validate_chrome_trace(data) == []

    def test_aborted_run_leaves_no_dangling_spans(self):
        """Training that dies mid-run (every worker gone) keeps the step
        logs of the quanta it finished: tracing them leaves no span open,
        so the trace exports even on the abort path."""
        fault = FaultSpec(
            crashes=tuple(
                WorkerCrash(worker=w, step=2, down_steps=2) for w in range(4)
            ),
        )
        engine = ExchangeEngine(
            lambda: build_resnet(8, base_width=4, seed=7),
            _dataset(),
            make_compressor("3LC (s=1.00)", seed=0),
            CosineDecay(0.05, 6),
            EngineConfig(
                num_workers=4, batch_size=8, shard_size=64, cluster_seed=0,
                topology="single", fault=fault,
            ),
        )
        with pytest.raises(RuntimeError, match="no live workers"):
            engine.train(6)
        tel = Telemetry()
        trace_training(
            tel,
            engine.scheme.name,
            engine.step_logs,
            engine.traffic.steps,
            engine.service.STAGES,
        )
        assert len(tel.step_snapshots) == len(engine.step_logs) == 2
        trace = chrome_trace([("aborted", tel)])
        assert validate_chrome_trace(trace) == []
        assert np.isfinite([log.train_loss for log in engine.step_logs]).all()
