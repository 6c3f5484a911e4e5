"""Unit tests for the telemetry subsystem: registry, tracer, exporters."""

import json
import math
import tracemalloc

import pytest

from repro.telemetry import (
    MetricsRegistry,
    Span,
    Telemetry,
    Tracer,
    series_key,
)
from repro.telemetry.export import (
    chrome_trace,
    metric_rows,
    write_chrome_trace,
    write_metric_snapshots,
)
from repro.telemetry.validate import validate_chrome_trace


class TestSeriesKey:
    def test_bare_name(self):
        assert series_key("wire_bytes", {}) == "wire_bytes"

    def test_labels_sorted(self):
        key = series_key("wire_bytes", {"scheme": "3lc", "link": "cross"})
        assert key == "wire_bytes{link=cross,scheme=3lc}"


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("wire_bytes", phase="push").inc(10)
        reg.counter("wire_bytes", phase="push").inc(5)
        reg.counter("wire_bytes", phase="pull").inc(1)
        snap = reg.snapshot()
        assert snap["counters"]["wire_bytes{phase=push}"] == 15
        assert snap["counters"]["wire_bytes{phase=pull}"] == 1

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n").inc(-1)

    def test_gauge_keeps_last(self):
        reg = MetricsRegistry()
        reg.gauge("train_loss").set(2.5)
        reg.gauge("train_loss").set(1.5)
        assert reg.snapshot()["gauges"]["train_loss"] == 1.5

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("staleness")
        for v in (0.5, 1.0, 2.0, 4.0):
            h.observe(v)
        snap = reg.snapshot()["histograms"]["staleness"]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(7.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 4.0
        assert snap["mean"] == pytest.approx(7.5 / 4)
        assert sum(snap["buckets"].values()) == 4

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")


class TestTracer:
    def test_completed_span(self):
        tr = Tracer()
        tr.span("netsim", "link:server", "layer3", 0.0, 0.5, phase="push")
        (span,) = tr.spans
        assert span.end - span.start == 0.5
        assert span.args == {"phase": "push"}

    def test_span_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="g/t/n ends before it starts"):
            Tracer().span("g", "t", "n", 1.0, 0.5)

    @pytest.mark.parametrize(
        "start,end",
        [
            (math.nan, 1.0),
            (0.0, math.nan),
            (math.nan, math.nan),
            (0.0, math.inf),
            (-math.inf, 0.0),
            (math.inf, math.inf),
            (-math.inf, -math.inf),
        ],
    )
    def test_span_rejects_non_finite_times(self, start, end):
        """They used to be recorded and written as ``NaN`` / ``Infinity``
        tokens, which are not JSON."""
        tr = Tracer()
        with pytest.raises(ValueError, match="g/t/n has a non-finite time"):
            tr.span("g", "t", "n", start, end)
        assert tr.spans == []

    def test_rows_share_interned_names_and_equal_args(self):
        tr = Tracer()
        for index in range(3):
            tr.span("sim", "link:a", f"layer{index % 2}", 0.0, 1.0, step=1, worker=None)
        tr.span("sim", "link:b", "layer0", 0.0, 1.0, worker=None, step=1)
        tr.span("sim", "link:b", "layer0", 0.0, 1.0, step=True)
        tr.span("sim", "link:b", "layer0", 0.0, 1.0, step=1.0)
        tr.span("sim", "link:b", "layer0", 0.0, 1.0)
        tr.span("sim", "link:b", "layer0", 0.0, 1.0)
        assert list(tr.tracks) == [("sim", "link:a"), ("sim", "link:b")]
        tracks, names, _, _, args = zip(*tr.rows())
        assert tracks == (0, 0, 0, 1, 1, 1, 1, 1)
        assert names[0] is names[2] is names[3]
        # Equal args share one row; key order, bool and float do not.
        assert args[0] is args[1] is args[2]
        assert args[3] == args[0] and args[3] is not args[0]
        assert args[4] == {"step": True} and args[5] == {"step": 1.0}
        assert type(args[4]["step"]) is bool and type(args[5]["step"]) is float
        assert args[6] is args[7] and args[6] == {}
        # The Span view copies: mutating it leaves the row alone.
        tr.spans[0].args["step"] = 99
        assert args[0] == {"step": 1, "worker": None}

    def test_refused_span_leaves_the_columns_in_step(self):
        tr = Tracer()
        with pytest.raises(TypeError):
            tr.span("g", "t", ["unhashable"], 0.0, 1.0)
        with pytest.raises(OverflowError):
            tr.span("g", "t", "n", 0.0, 10**400)
        tr.span("g", "t", "n", 0.0, 1.0, step=1)
        assert tr.spans == [Span("g", "t", "n", 0.0, 1.0, {"step": 1})]

    def test_span_memory_is_a_row_not_an_object(self):
        """A scheduler-shaped stream: fresh f-string names and fresh
        kwargs per call, few distinct names and args. An object per span
        (``Span`` + its args dict + its name) took ~480 B."""
        count = 20_000

        def emit(tracer):
            for index in range(count):
                start = index * 1e-3
                tracer.span(
                    "sim:10Mbps",
                    f"link:cross:rack{index % 4}",
                    f"layer{index % 60}.weight",
                    start,
                    start + 5e-4,
                    phase="push" if index % 2 else "pull",
                    step=index // 500,
                    worker=index % 8,
                )

        tracemalloc.start()
        try:
            tracer = Tracer()
            before = tracemalloc.get_traced_memory()[0]
            emit(tracer)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tracer.spans) == count
        assert held / count <= 96, f"{held / count:.1f} B/span"

    def test_track_totals_group_by_track(self):
        tr = Tracer()
        tr.span("sim", "link:a", "x", 0.0, 1.0)
        tr.span("sim", "link:a", "y", 2.0, 2.5)
        tr.span("sim", "link:b", "z", 0.0, 0.25)
        totals = {key: (count, busy) for key, count, busy in tr.track_totals()}
        assert totals[("sim", "link:a")] == (2, pytest.approx(1.5))
        assert totals[("sim", "link:b")] == (1, pytest.approx(0.25))


class TestChromeExport:
    def _tracer(self):
        tr = Tracer()
        tr.span("netsim", "link:server", "layer0", 0.0, 0.5, phase="push")
        tr.span("netsim", "compute", "backward", 0.0, 1.0)
        return tr

    def test_trace_structure(self):
        data = chrome_trace([("run", self._tracer())])
        events = data["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["name"] for m in metas} == {"process_name", "thread_name"}
        assert len(spans) == 2
        # Seconds scale to microseconds; tracks get distinct tids.
        by_name = {e["name"]: e for e in spans}
        assert by_name["layer0"]["dur"] == pytest.approx(0.5e6)
        assert by_name["layer0"]["args"] == {"phase": "push"}
        assert by_name["layer0"]["tid"] != by_name["backward"]["tid"]

    def test_written_file_validates(self, tmp_path):
        path = tmp_path / "out" / "trace.json"
        count = write_chrome_trace(path, [("run", self._tracer())])
        data = json.loads(path.read_text())
        assert count == len(data["traceEvents"])
        assert validate_chrome_trace(data) == []

    def test_accepts_bare_tracer_and_telemetry(self):
        tel = Telemetry()
        tel.tracer.span("engine", "worker0", "compute", 0.0, 1.0)
        assert chrome_trace(tel)["traceEvents"]
        assert chrome_trace(self._tracer())["traceEvents"]


class TestMetricSnapshots:
    def test_rows_include_steps_and_final(self, tmp_path):
        tel = Telemetry()
        tel.registry.counter("wire_bytes", phase="push").inc(100)
        tel.snapshot_step(step=0)
        tel.registry.counter("wire_bytes", phase="push").inc(50)
        tel.snapshot_step(step=1)
        path = tmp_path / "metrics.jsonl"
        count = write_metric_snapshots(path, [("run", tel)])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert count == len(rows) == 3  # two steps + final rollup
        assert rows[0]["step"] == 0
        assert rows[0]["metrics"]["counters"]["wire_bytes{phase=push}"] == 100
        assert rows[1]["metrics"]["counters"]["wire_bytes{phase=push}"] == 150
        assert rows[2]["final"] is True

    def test_metric_rows_label_sessions(self):
        tel = Telemetry()
        tel.snapshot_step(step=0)
        rows = metric_rows([("my run", tel)])
        assert all(r["session"] == "my run" for r in rows)


class TestValidator:
    def test_rejects_missing_keys(self):
        errors = validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        assert errors

    def test_rejects_unknown_phase(self):
        event = {"name": "x", "ph": "?", "pid": 1, "tid": 1}
        assert validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_negative_duration(self):
        event = {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
        assert validate_chrome_trace({"traceEvents": [event]})

    def test_rejects_unbalanced_begin_end(self):
        begin = {"name": "x", "ph": "B", "pid": 1, "tid": 1, "ts": 0}
        assert validate_chrome_trace({"traceEvents": [begin]})


class TestTelemetrySession:
    def test_summary_shape(self):
        tel = Telemetry()
        tel.registry.counter("wire_bytes", phase="push").inc(10)
        tel.registry.gauge("train_loss").set(2.0)
        tel.registry.histogram("staleness").observe(1.0)
        tel.tracer.span("engine", "worker0", "compute", 0.0, 1.0)
        tel.tracer.span("engine", "worker0", "compress", 1.0, 1.5)
        summary = tel.summary()
        assert summary["counters"]["wire_bytes{phase=push}"] == 10
        assert summary["gauges"]["train_loss"] == 2.0
        assert summary["histograms"]["staleness"]["count"] == 1
        assert summary["spans"]["engine/worker0"] == {
            "count": 2,
            "busy_seconds": pytest.approx(1.5),
        }
        assert json.dumps(summary)  # JSON-ready for results_io
