"""Analysis-layer tests: attribution reconciliation across the topology ×
sync-mode matrix and trace diffing with fault localization.

The acceptance invariant: attribution is an exact partition of each
step window, so bucket sums equal the simulated step time to 1e-6 on
every topology (single / sharded / ring / hier) under every sync mode
(bsp / async / ssp)."""

import json
import math

import pytest

from repro.compression import make_compressor
from repro.data import DatasetSpec, SyntheticImageDataset
from repro.distributed.faults import FaultSpec, UplinkFlap
from repro.exchange import MODELED, EngineConfig, ExchangeEngine
from repro.netsim import (
    EventDrivenSimulator,
    NetworkSimulator,
    link_model_for,
    updates_from_bsp_steps,
)
from repro.network.bandwidth import link
from repro.network.timing import StepTimeModel
from repro.nn import CosineDecay, build_resnet
from repro.nn.stats import profile_backward
from repro.telemetry import Tracer
from repro.telemetry.analysis import (
    TraceSpan,
    attribute_group,
    attribute_trace,
    bottleneck_report,
    diff_report,
    diff_text,
    report_text,
    spans_from_chrome,
    spans_from_tracer,
)
from repro.telemetry.analysis import attribution, diff, report
from repro.telemetry.export import chrome_trace
from repro.telemetry.validate import validate_chrome_trace

TIME_MODEL = StepTimeModel(
    overlap=0.0, per_message_overhead=25e-6, compute_scale=0.05, codec_scale=0.5
)


def train_engine(topology="single", sync_mode="bsp", steps=4, fault=None, **overrides):
    config = dict(
        num_workers=2,
        batch_size=8,
        shard_size=32,
        seed=0,
        topology=topology,
        sync_mode=sync_mode,
        record_transmissions=True,
        clock=MODELED,
    )
    if topology == "hier":
        config.update(num_workers=4, racks=2, rack_size=2)
    if topology == "sharded":
        config.update(num_shards=2)
    if sync_mode == "ssp":
        config.update(staleness=1)
    if fault is not None:
        config.update(fault=fault)
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
    return profile_backward(model, *dataset.train_shard(0, 8))


def _link_model(topology):
    return link_model_for(
        topology,
        link("100Mbps"),
        num_shards=2,
        num_workers=2,
        racks=2,
        rack_size=2,
        cross_bw_fraction=0.1,
    )


def _trace_bsp(engine, timeline, topology, *, vectorized=True, fault=False):
    tracer = Tracer()
    sim = NetworkSimulator(
        timeline,
        _link_model(topology),
        TIME_MODEL,
        overlap=True,
        vectorized=vectorized,
        tracer=tracer,
        trace_group="sim",
    )
    run = sim.simulate_run(engine.transmissions)
    return tracer, run


class TestAttributionReconciles:
    """Bucket sums == simulated step time to 1e-6, full matrix."""

    @pytest.mark.parametrize("topology", ["single", "sharded", "ring", "hier"])
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_bsp_step_windows(self, topology, vectorized, timeline):
        engine = train_engine(topology)
        tracer, run = _trace_bsp(
            engine, timeline, topology, vectorized=vectorized
        )
        attribution = attribute_group(spans_from_tracer(tracer), "sim")
        assert len(attribution.steps) == len(run.steps)
        for window, st in zip(attribution.steps, run.steps):
            assert window.step == st.step
            assert window.total_seconds == pytest.approx(
                st.step_seconds, abs=1e-6
            )
            assert window.reconciliation_error <= 1e-6
            assert sum(window.buckets.values()) == pytest.approx(
                st.step_seconds, abs=1e-6
            )
        assert attribution.total_seconds == pytest.approx(
            sum(st.step_seconds for st in run.steps), abs=1e-6
        )

    @pytest.mark.parametrize(
        "topology,sync_mode",
        [
            ("single", "async"),
            ("single", "ssp"),
            ("sharded", "async"),
            ("sharded", "ssp"),
            ("ring", "async"),
            ("ring", "ssp"),
            ("hier", "async"),
            ("hier", "ssp"),
        ],
    )
    def test_event_driven_single_window(self, topology, sync_mode, timeline):
        if topology == "ring":
            # The ring is a synchronous collective: its event-mode
            # coverage rides the staleness-0 fold of a BSP recording
            # (the same bridge the event core's parity anchor walks).
            engine = train_engine(topology, steps=4)
            events = updates_from_bsp_steps(engine.transmissions, 2)
        else:
            engine = train_engine(topology, sync_mode=sync_mode, steps=4)
            events = engine.update_events
        tracer = Tracer()
        sim = EventDrivenSimulator(
            timeline,
            _link_model(topology),
            TIME_MODEL,
            staleness=1 if sync_mode == "ssp" else None,
            overlap=True,
            tracer=tracer,
            trace_group="sim",
        )
        exchange = sim.simulate(events)
        attribution = attribute_group(spans_from_tracer(tracer), "sim")
        # Per-update streams carry no step args: one window spans the run.
        assert len(attribution.steps) == 1
        window = attribution.steps[0]
        assert window.reconciliation_error <= 1e-6
        assert window.end == pytest.approx(exchange.total_seconds, abs=1e-6)

    def test_hier_buckets_name_both_tiers(self, timeline):
        engine = train_engine("hier")
        tracer, _ = _trace_bsp(engine, timeline, "hier")
        buckets = attribute_group(spans_from_tracer(tracer), "sim").buckets
        assert buckets.get("compute", 0.0) > 0.0
        assert buckets.get("codec", 0.0) > 0.0
        assert any(key.startswith("wire:rack") for key in buckets)
        assert any(key.startswith("wire:cross:rack") for key in buckets)

    def test_chrome_round_trip_attributes_identically(self, timeline):
        engine = train_engine("hier")
        tracer, _ = _trace_bsp(engine, timeline, "hier")
        live = attribute_group(spans_from_tracer(tracer), "sim")
        exported = chrome_trace(tracer)
        loaded = attribute_group(spans_from_chrome(exported), "sim")
        # Chrome rides microsecond floats: boundary coincidences can
        # split into hairline slices, so compare values (not key sets)
        # inside the reconciliation budget.
        for bucket in live.buckets.keys() | loaded.buckets.keys():
            assert loaded.buckets.get(bucket, 0.0) == pytest.approx(
                live.buckets.get(bucket, 0.0), abs=1e-6
            )


def _span(track, name, start, end, group="sim", **args):
    return TraceSpan(group, track, name, float(start), float(end), args)


class TestSliceSemantics:
    """Hand-built windows on a dyadic grid: every expected value is exact."""

    def test_compute_beats_codec_beats_wire_beats_barrier_beats_outage(self):
        spans = [
            _span("outage:rack0", "down", 0, 5),
            _span("worker0", "barrier-wait", 0, 4),
            _span("link:rack0", "push", 0, 3),
            _span("codec:up", "compress", 0, 2),
            _span("compute", "backward", 0, 1),
        ]
        (window,) = attribute_group(spans, "sim").steps
        assert window.buckets == {
            "compute": 1.0,
            "codec": 1.0,
            "wire:rack0": 1.0,
            "barrier_wait": 1.0,
            "outage:rack0": 1.0,
        }
        # Buckets are keyed in the order their first slice is reached.
        assert list(window.buckets) == [
            "compute", "codec", "wire:rack0", "barrier_wait", "outage:rack0",
        ]

    def test_wire_slice_charges_the_transfer_ending_last(self):
        spans = [_span("link:a", "push", 0, 2), _span("link:b", "push", 1, 3)]
        (window,) = attribute_group(spans, "sim").steps
        assert window.buckets == {"wire:a": 1.0, "wire:b": 2.0}
        # A transfer nested inside a longer one never owns a slice.
        spans = [_span("link:a", "push", 0, 3), _span("link:b", "push", 1, 2)]
        (window,) = attribute_group(spans, "sim").steps
        assert window.buckets == {"wire:a": 3.0}

    def test_equal_ends_break_the_tie_on_bucket_name(self):
        spans = [_span("link:b", "push", 0, 2), _span("link:a", "push", 0, 2)]
        (window,) = attribute_group(spans, "sim").steps
        assert window.buckets == {"wire:a": 2.0}

    def test_true_end_not_clipped_end_ranks_transfers(self):
        # Both transfers outlive step 0's window [0, 2): clipped they tie,
        # and the one that really ends last is the critical one.
        spans = [
            _span("link:a", "push", 0, 3, step=0),
            _span("link:b", "push", 0, 4, step=0),
            _span("compute", "backward", 2, 5, step=1),
        ]
        first, second = attribute_group(spans, "sim").steps
        assert (first.start, first.end) == (0.0, 2.0)
        assert first.buckets == {"wire:b": 2.0}
        assert second.buckets == {"compute": 3.0}

    def test_span_straddling_two_windows_is_clipped_into_both(self):
        spans = [
            _span("compute", "backward", 0, 1, step=0),
            _span("link:x", "push", 0.5, 2.5, step=0),
            _span("compute", "backward", 2.5, 3, step=1),
            _span("codec", "decode", 2, 2, step=1),  # opens step 1 at t=2
        ]
        first, second = attribute_group(spans, "sim").steps
        assert (first.step, first.start, first.end) == (0, 0.0, 2.0)
        assert first.buckets == {"compute": 1.0, "wire:x": 1.0}
        assert (second.step, second.start, second.end) == (1, 2.0, 3.0)
        assert second.buckets == {"wire:x": 0.5, "compute": 0.5}

    def test_trace_without_step_args_is_one_window(self):
        spans = [_span("compute", "backward", 1, 2), _span("link:x", "push", 3, 4.5)]
        (window,) = attribute_group(spans, "sim").steps
        assert (window.step, window.start, window.end) == (None, 1.0, 4.5)
        assert window.reconciliation_error == 0.0

    def test_uncovered_time_is_barrier_wait(self):
        spans = [_span("compute", "backward", 0, 1), _span("compute", "backward", 3, 4)]
        (window,) = attribute_group(spans, "sim").steps
        assert window.buckets == {"compute": 2.0, "barrier_wait": 2.0}

    def test_empty_and_zero_length_windows_have_no_buckets(self):
        (window,) = attribute_group([], "sim").steps
        assert (window.start, window.end, window.buckets) == (0.0, 0.0, {})
        (window,) = attribute_group([_span("compute", "backward", 1, 1)], "sim").steps
        assert (window.start, window.end, window.buckets) == (1.0, 1.0, {})
        # Two steps opening at the same instant: the first is zero-length.
        spans = [
            _span("codec", "decode", 0, 0, step=0),
            _span("compute", "backward", 0, 1, step=1),
        ]
        first, second = attribute_group(spans, "sim").steps
        assert first.buckets == {} and first.total_seconds == 0.0
        assert second.buckets == {"compute": 1.0}

    def test_rollups_sum_span_durations_by_worker_and_rack(self):
        spans = [
            _span("worker2", "compute", 0, 1),
            _span("link:cross:rack1", "push", 0, 2, worker=2),
            _span("outage:rack1", "down", 2, 2.5),
            _span("rack0", "compress", 0, 0.5),
        ]
        run = attribute_group(spans, "sim")
        assert run.per_worker == {"worker2": {"compute": 1.0, "wire:cross:rack1": 2.0}}
        assert run.per_rack == {
            "rack1": {"wire:cross:rack1": 2.0, "outage:rack1": 0.5},
            "rack0": {"codec": 0.5},
        }


class TestSweepComplexity:
    """Counts, not timings: the sweep's work is linear in the spans."""

    def test_classify_once_per_span_and_windows_visit_their_own_spans(
        self, monkeypatch
    ):
        steps, per_step = 12, 40
        tracks = ["compute", "codec:up", "link:rack0", "link:cross:rack1", "worker1"]
        spans = []
        for step in range(steps):
            for index in range(per_step):
                start = step + index / (2 * per_step)
                spans.append(
                    _span(
                        tracks[index % len(tracks)],
                        "backward" if index % 2 else "push",
                        start,
                        start + 0.25,
                        step=step,
                    )
                )
        classified = []
        real_classify = attribution.classify
        monkeypatch.setattr(
            attribution,
            "classify",
            lambda track, name: classified.append((track, name))
            or real_classify(track, name),
        )
        visited = []
        real_window = attribution._attribute_window
        monkeypatch.setattr(
            attribution,
            "_attribute_window",
            lambda candidates, begin, end: visited.append(len(candidates))
            or real_window(candidates, begin, end),
        )
        run = attribute_group(spans, "sim")
        assert len(run.steps) == steps and run.max_reconciliation_error <= 1e-12
        # The quadratic version classified every span once per window and
        # once more for the rollups: (steps + 1) x spans.
        assert len(classified) <= len(spans)
        # ... and handed all of the group's spans to every window.
        assert len(visited) == steps
        assert sum(visited) <= 2 * len(spans) + steps


class TestLoaderRejects:
    """``spans_from_chrome`` names the event and field it cannot use."""

    GOOD = {"ph": "X", "name": "push", "pid": 1, "tid": 2, "ts": 10, "dur": 5.5}

    @pytest.mark.parametrize("field", ["pid", "tid", "ts", "dur"])
    @pytest.mark.parametrize("bad", ["missing", None, "12", [1], True])
    def test_bad_numeric_field_names_event_and_field(self, field, bad):
        event = dict(self.GOOD)
        if bad == "missing":
            del event[field]
        else:
            event[field] = bad
        data = {"traceEvents": [dict(self.GOOD), {"ph": "i"}, event]}
        with pytest.raises(ValueError, match=rf"traceEvents\[2\].*'{field}'"):
            spans_from_chrome(data)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ts", math.nan),
            ("ts", math.inf),
            ("ts", -5),
            ("dur", math.inf),
            ("dur", math.nan),
            ("dur", -3),
            ("dur", -0.5),
        ],
    )
    def test_impossible_time_is_refused_with_the_validators_message(
        self, field, value
    ):
        """A NaN ``ts`` used to drop the span, an infinite ``dur`` to make the
        run infinite, a negative ``ts`` to widen the window."""
        event = dict(self.GOOD, **{field: value})
        data = {"traceEvents": [dict(self.GOOD), event]}
        (error,) = validate_chrome_trace(data)
        assert error == (
            f"traceEvents[1]: bad {field!r} {value!r} (want finite number >= 0)"
        )
        with pytest.raises(ValueError) as raised:
            attribute_trace(data)
        assert str(raised.value) == error

    def test_well_formed_event_loads(self):
        (span,) = spans_from_chrome({"traceEvents": [self.GOOD]})
        assert (span.group, span.track, span.name) == ("pid1", "tid2", "push")
        assert (span.start, span.end) == (10 / 1e6, 10 / 1e6 + 5.5 / 1e6)


class TestBottleneckReport:
    def test_schema_and_ranking(self, timeline):
        engine = train_engine("hier")
        tracer, _ = _trace_bsp(engine, timeline, "hier")
        report = bottleneck_report(
            attribute_trace(spans_from_tracer(tracer)), top=3
        )
        assert report["schema"] == "repro.bottleneck-report/v1"
        (session,) = report["sessions"]
        assert session["group"] == "sim"
        ranked = [entry["seconds"] for entry in session["bottlenecks"]]
        assert ranked == sorted(ranked, reverse=True)
        assert session["reconciliation"]["max_abs_error"] <= 1e-6
        assert 0.0 < sum(e["share"] for e in session["bottlenecks"]) <= 1.0 + 1e-9
        assert session["per_rack"]  # hier traces carry rack rollups
        text = report_text(report, top=3)
        assert "sim" in text and "Bucket" in text


def _synthetic_trace(flapped: bool) -> dict:
    """Two steps on integer µs; the flapped variant holds ``cross:rack1``
    down for 700 µs of step 1 and the push waits behind it."""
    tracks = ["compute", "link:cross:rack1", "codec:up", "outage:cross:rack1"]
    events = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "sim:10Mbps"}}
    ]
    for tid, track in enumerate(tracks, start=1):
        events.append(
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
             "args": {"name": track}}
        )
    stall = 700 if flapped else 0
    spans = [
        (1, "backward", 0, 300, 0),
        (3, "compress", 300, 100, 0),
        (2, "push", 350, 450, 0),
        (1, "backward", 1000, 300, 1),
        (3, "compress", 1300, 100, 1),
        (2, "push", 1350 + stall, 450, 1),
    ]
    if flapped:
        spans.append((4, "down", 1300, stall, 1))
    for tid, name, ts, dur, step in spans:
        events.append(
            {"ph": "X", "name": name, "pid": 1, "tid": tid, "ts": ts, "dur": dur,
             "args": {"step": step}}
        )
    return {"traceEvents": events}


#: ``trace-diff --json`` of the synthetic pair, recorded before the spans
#: were loaded once per trace and attribution became a sweep (14fac9d).
SYNTHETIC_DIFF = {
    "schema": "repro.trace-diff/v1",
    "groups": [
        {
            "group": "sim:10Mbps",
            "base_seconds": 0.0018,
            "other_seconds": 0.0025,
            "delta_seconds": 0.0007000000000000001,
            "new_outage_routes": ["cross:rack1"],
            "regressions": [
                {
                    "step": 1,
                    "base_seconds": 0.0007999999999999999,
                    "other_seconds": 0.0015,
                    "delta_seconds": 0.0007000000000000001,
                    "buckets": [
                        {
                            "bucket": "outage:cross:rack1",
                            "base": 0.0,
                            "other": 0.0006000000000000001,
                            "delta": 0.0006000000000000001,
                        },
                        {
                            "bucket": "barrier_wait",
                            "base": 0.0,
                            "other": 5.000000000000013e-05,
                            "delta": 5.000000000000013e-05,
                        },
                        {
                            "bucket": "wire:cross:rack1",
                            "base": 0.00039999999999999996,
                            "other": 0.0004499999999999999,
                            "delta": 4.9999999999999914e-05,
                        },
                    ],
                    "outage_routes": ["cross:rack1"],
                }
            ],
        }
    ],
}


#: Results archives ``load_results`` refuses: not a list of runs, an
#: object holding one, a run missing its fields, truncated JSON.
MALFORMED_ARCHIVES = {
    "object": json.dumps({"results": []}),
    "not-a-run": json.dumps([{"scheme": "x"}, "not a run"]),
    "missing-field": json.dumps([{"format_version": 1, "scheme": "x"}]),
    "number": "7",
    "truncated": '[{"format_version": 1, "sch',
}


def _run_document(**fields) -> dict:
    """One run as ``save_results`` archives it."""
    document = {
        "format_version": 1,
        "scheme": "3LC",
        "fraction": 1.0,
        "steps": 1,
        "final_accuracy": 0.1,
        "final_loss": 2.3,
        "eval_curve": [],
        "loss_curve": [],
        "compression_ratio": 1.0,
        "bits_per_value": 32.0,
        "mean_step_seconds": {},
        "total_seconds": {},
        "traffic_steps": [],
    }
    return document | fields


class TestTraceDiff:
    def test_flapped_run_names_the_link(self, timeline):
        clean = train_engine("hier", steps=6)
        flapped = train_engine(
            "hier",
            steps=6,
            fault=FaultSpec(
                flaps=(
                    UplinkFlap(
                        rack=1, step=2, down_steps=1, rejoin_delay_seconds=0.05
                    ),
                )
            ),
        )
        traces = {}
        for label, engine in (("clean", clean), ("flapped", flapped)):
            tracer, _ = _trace_bsp(engine, timeline, "hier")
            traces[label] = chrome_trace(tracer)
        report = diff_report(traces["clean"], traces["flapped"])
        assert report["schema"] == "repro.trace-diff/v1"
        (group,) = report["groups"]
        assert group["new_outage_routes"] == ["cross:rack1"]
        flagged = [
            entry
            for entry in group["regressions"]
            if entry.get("outage_routes")
        ]
        assert flagged, "no regression window carries the outage"
        assert all(
            entry["outage_routes"] == ["cross:rack1"] for entry in flagged
        )
        # The rejoin step regressed and the diff localizes it.
        worst = max(
            (e for e in group["regressions"] if "delta_seconds" in e),
            key=lambda e: e["delta_seconds"],
        )
        assert worst["delta_seconds"] > 0.0
        assert worst["outage_routes"] == ["cross:rack1"]
        text = diff_text(report)
        assert "cross:rack1" in text

    def test_identical_traces_diff_clean(self, timeline):
        engine = train_engine("single")
        tracer, _ = _trace_bsp(engine, timeline, "single")
        data = chrome_trace(tracer)
        report = diff_report(data, data)
        (group,) = report["groups"]
        assert group["delta_seconds"] == 0.0
        assert group["new_outage_routes"] == []
        assert all("delta_seconds" not in e for e in group["regressions"])

    def test_cli_json_is_pinned_and_each_trace_is_parsed_once(
        self, tmp_path, monkeypatch, capsys
    ):
        paths = []
        for label, flapped in (("base", False), ("other", True)):
            paths.append(tmp_path / f"{label}.json")
            paths[-1].write_text(json.dumps(_synthetic_trace(flapped)))
        parsed = []
        real_loader = attribution.rows_from_chrome

        def counting_loader(data):
            parsed.append(data)
            return real_loader(data)

        # Both routes to the row reader: diff's own and ``attribute_trace``'s.
        monkeypatch.setattr(diff, "rows_from_chrome", counting_loader)
        monkeypatch.setattr(attribution, "rows_from_chrome", counting_loader)
        out = tmp_path / "diff.json"
        assert diff.main([str(paths[0]), str(paths[1]), "--json", str(out)]) == 0
        assert out.read_text() == json.dumps(SYNTHETIC_DIFF, indent=2) + "\n"
        assert len(parsed) == 2
        assert "cross:rack1" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "archive", MALFORMED_ARCHIVES.values(), ids=MALFORMED_ARCHIVES
    )
    def test_malformed_results_archive_fails_naming_the_file(
        self, tmp_path, capsys, archive
    ):
        """A dict without ``results`` used to be iterated by key and read as
        "no fault summary"; a truncated one ended in a bare traceback."""
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(_synthetic_trace(False)))
        bad = tmp_path / "not_results.json"
        bad.write_text(archive)
        assert diff.main([str(trace), str(trace), "--results", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"{bad}: ")

    def test_truncated_trace_fails_naming_the_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(_synthetic_trace(False)))
        cut = tmp_path / "cut.json"
        cut.write_text(trace.read_text()[:15])
        assert diff.main([str(trace), str(cut)]) == 2
        assert f"{cut}: not a Chrome trace" in capsys.readouterr().err

    def test_results_archive_fault_summaries_are_merged(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(_synthetic_trace(False)))
        out = tmp_path / "diff.json"
        good = tmp_path / "results.json"
        good.write_text(
            json.dumps([_run_document(fault_summary={"flaps": 1}), _run_document()])
        )
        argv = [str(trace), str(trace), "--results", str(good), "--json", str(out)]
        assert diff.main(argv) == 0
        assert json.loads(out.read_text())["fault_summary"] == {"flaps": 1}


class TestReportCli:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        events = [
            {"ph": "X", "name": "backward", "pid": 1, "tid": 1, "ts": 0, "dur": 250},
        ]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": events}))
        return path

    @pytest.mark.parametrize(
        "archive", MALFORMED_ARCHIVES.values(), ids=MALFORMED_ARCHIVES
    )
    def test_malformed_results_archive_fails_naming_the_file(
        self, trace_path, tmp_path, capsys, archive
    ):
        bad = tmp_path / "not_results.json"
        bad.write_text(archive)
        assert report.main([str(trace_path), "--results", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{bad}: ")
        assert "Bottlenecks" not in captured.out

    def test_truncated_trace_fails_naming_the_file(self, trace_path, capsys):
        trace_path.write_text(trace_path.read_text()[:15])
        assert report.main([str(trace_path)]) == 2
        assert f"{trace_path}: not a Chrome trace" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["[1, 2]", "3", '"trace"', "null"])
    def test_non_object_trace_fails_naming_the_file(self, trace_path, capsys, top):
        """A JSON list used to load and then die in attribution with an
        ``AttributeError`` on its first element."""
        trace_path.write_text(top)
        with pytest.raises(ValueError, match="not a Chrome trace: top level is"):
            attribution.load_chrome_trace(trace_path)
        assert report.main([str(trace_path)]) == 2
        assert f"{trace_path}: not a Chrome trace" in capsys.readouterr().err

    def test_results_archive_totals_are_printed(self, trace_path, tmp_path, capsys):
        good = tmp_path / "results.json"
        good.write_text(
            json.dumps(
                [_run_document(total_seconds={"10Mbps": 1.5}), _run_document()]
            )
        )
        assert report.main([str(trace_path), "--check", "--results", str(good)]) == 0
        out = capsys.readouterr().out
        assert "archived totals [3LC]: 10Mbps=1.500000s" in out
        assert "reconciliation ok" in out
