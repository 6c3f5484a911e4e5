"""Integration tests: spans vs simulator accounting, engine metrics,
and the harness-level telemetry round trip.

The load-bearing invariant (the PR's acceptance check): every span a
simulator emits on a ``link:<route>`` track uses exactly the duration it
charged to that link's busy accounting, so per-link span sums equal
``sum(step.link_utilization[route] * step.step_seconds)`` to float
precision — well inside 1e-6.
"""

from dataclasses import replace

import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed import StragglerSpec
from repro.exchange import MEASURED, MODELED, Clock, EngineConfig, ExchangeEngine
from repro.harness.config import FAST_CONFIG
from repro.harness.runner import ExperimentRunner
from repro.netsim import (
    EventDrivenSimulator,
    NetworkSimulator,
    link_model_for,
    single_server_links,
)
from repro.network.bandwidth import link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import profile_backward
from repro.telemetry import Telemetry, Tracer, trace_training, tracing
from repro.telemetry.export import chrome_trace
from repro.telemetry.validate import validate_chrome_trace

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=0.05, codec_scale=0.5
)


def _train_hier(steps=4):
    dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
    engine = ExchangeEngine(
        lambda: build_resnet(8, base_width=4, seed=1),
        dataset,
        make_compressor("3LC (s=1.00)", seed=0),
        CosineDecay(0.05, steps),
        EngineConfig(
            num_workers=4,
            batch_size=8,
            shard_size=64,
            cluster_seed=0,
            topology="hier",
            racks=2,
            rack_size=2,
            sim_overlap=True,
        ),
    )
    engine.train(steps)
    timeline = profile_backward(
        build_resnet(8, base_width=4, seed=1), *dataset.train_shard(0, 8)
    )
    return engine, timeline


def _link_span_busy(tracer, group):
    """Per-route span-duration totals for one trace group."""
    return {
        track.removeprefix("link:"): busy
        for (g, track), _, busy in tracer.track_totals()
        if g == group and track.startswith("link:")
    }


def _utilization_busy(run):
    """The simulator's own accounting: per-route busy seconds."""
    busy = {}
    for st in run.steps:
        for route, fraction in st.link_utilization.items():
            busy[route] = busy.get(route, 0.0) + fraction * st.step_seconds
    return busy


class TestSpanUtilizationParity:
    """Per-link busy spans must sum to the simulator's link_utilization."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_hier_bsp(self, vectorized):
        engine, timeline = _train_hier()
        lm = link_model_for(
            "hier", link("100Mbps"), racks=2, rack_size=2, cross_bw_fraction=0.1
        )
        tracer = Tracer()
        sim = NetworkSimulator(
            timeline,
            lm,
            TIME_MODEL,
            overlap=True,
            vectorized=vectorized,
            tracer=tracer,
            trace_group="sim",
        )
        run = sim.simulate_run(engine.transmissions)
        expected = _utilization_busy(run)
        actual = _link_span_busy(tracer, "sim")
        assert set(actual) == {r for r, b in expected.items() if b > 0}
        for route, busy in expected.items():
            assert actual.get(route, 0.0) == pytest.approx(busy, abs=1e-6)
        # Both tiers of the hierarchical link model carried traffic.
        assert any(r.startswith("rack") for r in actual)
        assert any(r.startswith("cross:rack") for r in expected)

    def test_scalar_vector_span_parity(self):
        engine, timeline = _train_hier()
        lm = link_model_for(
            "hier", link("100Mbps"), racks=2, rack_size=2, cross_bw_fraction=0.1
        )
        busy = {}
        for vectorized in (True, False):
            tracer = Tracer()
            NetworkSimulator(
                timeline,
                lm,
                TIME_MODEL,
                overlap=True,
                vectorized=vectorized,
                tracer=tracer,
                trace_group="sim",
            ).simulate_run(engine.transmissions)
            busy[vectorized] = _link_span_busy(tracer, "sim")
        assert busy[True].keys() == busy[False].keys()
        for route in busy[True]:
            assert busy[True][route] == pytest.approx(
                busy[False][route], abs=1e-9
            )

    def test_event_driven_async(self):
        dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
        engine = ExchangeEngine(
            lambda: build_resnet(8, base_width=4, seed=1),
            dataset,
            make_compressor("3LC (s=1.00)", seed=0),
            CosineDecay(0.05, 6),
            EngineConfig(
                num_workers=2, batch_size=8, shard_size=64, cluster_seed=0,
                sync_mode="async", sim_overlap=True,
            ),
        )
        engine.train(6)
        timeline = profile_backward(
            build_resnet(8, base_width=4, seed=1), *dataset.train_shard(0, 8)
        )
        tracer = Tracer()
        sim = EventDrivenSimulator(
            timeline,
            single_server_links(link("100Mbps")),
            TIME_MODEL,
            overlap=True,
            tracer=tracer,
            trace_group="sim",
        )
        exchange = sim.simulate(engine.update_events)
        actual = _link_span_busy(tracer, "sim")
        for route, fraction in exchange.link_utilization.items():
            expected = fraction * exchange.total_seconds
            if expected > 0:
                assert actual[route] == pytest.approx(expected, abs=1e-6)

    def test_trace_offset_makes_steps_contiguous(self):
        engine, timeline = _train_hier()
        lm = link_model_for(
            "hier", link("100Mbps"), racks=2, rack_size=2, cross_bw_fraction=0.1
        )
        tracer = Tracer()
        sim = NetworkSimulator(
            timeline, lm, TIME_MODEL, overlap=True, tracer=tracer,
            trace_group="sim",
        )
        run = sim.simulate_run(engine.transmissions)
        # Later steps' spans start past the earlier steps' total time.
        step_starts = {}
        for span in tracer.spans:
            step = span.args.get("step")
            if step is not None:
                step_starts.setdefault(step, span.start)
        steps = sorted(step_starts)
        assert steps == [st.step for st in run.steps]
        for earlier, later in zip(steps, steps[1:]):
            assert step_starts[later] >= step_starts[earlier]


def engine_telemetry(engine) -> Telemetry:
    """A finished engine run's telemetry, traced from its step logs."""
    tel = Telemetry()
    trace_training(
        tel,
        engine.scheme.name,
        engine.step_logs,
        engine.traffic.steps,
        engine.service.STAGES,
    )
    return tel


class TestEngineTelemetry:
    def test_bsp_hier_metrics_and_spans(self):
        dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
        engine = ExchangeEngine(
            lambda: build_resnet(8, base_width=4, seed=1),
            dataset,
            make_compressor("3LC (s=1.00)", seed=0),
            CosineDecay(0.05, 3),
            EngineConfig(
                num_workers=4, batch_size=8, shard_size=64, cluster_seed=0,
                topology="hier", racks=2, rack_size=2,
            ),
        )
        engine.train(3)
        tel = engine_telemetry(engine)
        summary = tel.summary()
        counters = summary["counters"]
        assert counters["messages{phase=push}"] > 0
        assert any(key.startswith("wire_bytes{") for key in counters)
        assert any("link=cross" in key for key in counters)
        assert summary["gauges"]["train_loss"] > 0
        # One snapshot per step, and a worker track per rack-ring worker.
        assert len(tel.step_snapshots) == 3
        assert any(t.startswith("engine/worker") for t in summary["spans"])
        data = chrome_trace(tel)
        assert validate_chrome_trace(data) == []

    def test_async_updates_traced(self):
        dataset = SyntheticImageDataset(DatasetSpec(image_size=12, seed=0))
        engine = ExchangeEngine(
            lambda: build_resnet(8, base_width=4, seed=1),
            dataset,
            make_compressor("3LC (s=1.00)", seed=0),
            CosineDecay(0.05, 4),
            EngineConfig(
                num_workers=2, batch_size=8, shard_size=64, cluster_seed=0,
                sync_mode="async",
            ),
        )
        engine.train(4)
        tel = engine_telemetry(engine)
        summary = tel.summary()
        assert summary["histograms"]["staleness"]["count"] > 0
        assert any(t.startswith("engine/worker") for t in summary["spans"])
        assert validate_chrome_trace(chrome_trace(tel)) == []

    @pytest.mark.parametrize("topology", ["single", "ring", "hier"])
    def test_compute_spans_use_the_step_the_barrier_charged(self, topology):
        """With stragglers, a step's traced compute spans carry the same
        per-step multipliers its barrier decided on: the slowest worker's
        compute span is exactly the step's charged compute time."""
        config = FAST_CONFIG.scaled(
            model_family="mlp",
            num_workers=4,
            topology=topology,
            straggler=StragglerSpec(jitter_sigma=0.5, seed=3),
        )
        engine = ExchangeEngine(
            config.model_factory(),
            config.dataset(),
            make_compressor("3LC (s=1.00)", seed=0),
            config.schedule(3),
            replace(config, clock=Clock(compute_seconds=0.01)),
        )
        engine.train(3)
        tel = engine_telemetry(engine)
        charged = [traffic.compute_seconds for traffic in engine.traffic.steps]
        assert len(set(charged)) == 3  # the multipliers do vary by step
        for traffic in engine.traffic.steps:
            spans = [
                span
                for span in tel.tracer.spans
                if span.name == "compute" and span.args["step"] == traffic.step
            ]
            assert len(spans) == 4
            start = spans[0].start
            assert all(span.start == start for span in spans)
            assert max(span.end for span in spans) == start + traffic.compute_seconds


class TestRunnerTelemetry:
    @pytest.fixture(scope="class")
    def traced_runner(self):
        config = FAST_CONFIG.scaled(
            standard_steps=4, eval_points=1, telemetry=True, sim_overlap=True,
        )
        runner = ExperimentRunner(config)
        runner.run("3LC (s=1.00)", 1.0)
        return runner

    def test_summary_on_result(self, traced_runner):
        result = traced_runner.run("3LC (s=1.00)", 1.0)
        assert result.telemetry_summary is not None
        assert result.telemetry_summary["counters"]
        assert result.telemetry_summary["spans"]

    def test_sessions_recorded_and_exportable(self, traced_runner):
        assert len(traced_runner.telemetry_sessions) == 1
        label, tel = traced_runner.telemetry_sessions[0]
        assert "3LC" in label
        data = chrome_trace(traced_runner.telemetry_sessions)
        assert validate_chrome_trace(data) == []
        # Both the engine's and the simulators' groups made it in.
        processes = {
            event["args"]["name"]
            for event in data["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert any("engine" in p for p in processes)
        assert any("sim:" in p for p in processes)

    def test_roundtrip_through_results_io(self, traced_runner):
        from repro.harness.results_io import (
            run_result_from_dict,
            run_result_to_dict,
        )

        result = traced_runner.run("3LC (s=1.00)", 1.0)
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.telemetry_summary == result.telemetry_summary

    @pytest.mark.parametrize("clock", [MEASURED, MODELED])
    def test_telemetry_off_leaves_result_bare(self, monkeypatch, clock):
        # Off must be free of span rows, not merely of output: count the
        # rows every tracer appends during the run.
        tracers = []
        real_init = tracing.Tracer.__init__

        def counted_init(self, *args, **kwargs):
            tracers.append(self)
            real_init(self, *args, **kwargs)

        def rows_appended():
            return sum(len(list(tracer.rows())) for tracer in tracers)

        monkeypatch.setattr(tracing.Tracer, "__init__", counted_init)
        config = FAST_CONFIG.scaled(
            standard_steps=4, eval_points=1, sim_overlap=True, clock=clock
        )
        runner = ExperimentRunner(config)
        result = runner.run("32-bit float", 1.0)
        assert result.telemetry_summary is None
        assert runner.telemetry_sessions == []
        assert rows_appended() == 0
        # The counter does see a live tracer's rows.
        Tracer().span("g", "t", "n", 0.0, 1.0)
        assert rows_appended() == 1
