"""Edge cases for the trace schema gate: empty traces, per-track
discipline under ``--strict``, and malformed files through the CLI."""

import json
import math

import pytest

from repro.telemetry import Tracer
from repro.telemetry.analysis import attribute_trace
from repro.telemetry.export import chrome_trace
from repro.telemetry.validate import main, validate_chrome_trace


def _x(pid, tid, name, ts, dur):
    return {"name": name, "ph": "X", "pid": pid, "tid": tid, "ts": ts, "dur": dur}


class TestEmptyTrace:
    def test_empty_event_list_is_flagged(self):
        errors = validate_chrome_trace({"traceEvents": []})
        assert errors == ["'traceEvents' is empty"]

    def test_empty_tracer_exports_an_empty_trace(self):
        data = chrome_trace(Tracer())
        assert validate_chrome_trace(data) == ["'traceEvents' is empty"]

    def test_missing_trace_events_key(self):
        assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
        assert validate_chrome_trace([]) == [
            "top level must be an object, got list"
        ]


class TestStrictOverlap:
    def test_overlapping_spans_on_one_track(self):
        data = {
            "traceEvents": [
                _x(1, 1, "a", 0.0, 10.0),
                _x(1, 1, "b", 5.0, 10.0),
            ]
        }
        # Default mode tolerates overlap (shared tracks interleave
        # legitimately); strict flags it.
        assert validate_chrome_trace(data) == []
        errors = validate_chrome_trace(data, strict=True)
        assert len(errors) == 1
        assert "overlapping spans" in errors[0]
        assert "'a'" in errors[0] and "'b'" in errors[0]

    def test_touching_spans_are_not_overlapping(self):
        data = {
            "traceEvents": [
                _x(1, 1, "a", 0.0, 5.0),
                _x(1, 1, "b", 5.0, 5.0),
            ]
        }
        assert validate_chrome_trace(data, strict=True) == []

    def test_overlap_on_different_tracks_is_fine(self):
        data = {
            "traceEvents": [
                _x(1, 1, "a", 0.0, 10.0),
                _x(1, 2, "b", 5.0, 10.0),
            ]
        }
        assert validate_chrome_trace(data, strict=True) == []


class TestStrictOrdering:
    def test_out_of_order_timestamps_on_one_track(self):
        data = {
            "traceEvents": [
                _x(1, 1, "late", 100.0, 1.0),
                _x(1, 1, "early", 50.0, 1.0),
            ]
        }
        assert validate_chrome_trace(data) == []
        errors = validate_chrome_trace(data, strict=True)
        assert len(errors) == 1
        assert "out-of-order" in errors[0]

    def test_interleaved_tracks_keep_their_own_order(self):
        data = {
            "traceEvents": [
                _x(1, 1, "a0", 0.0, 1.0),
                _x(1, 2, "b0", 100.0, 1.0),
                _x(1, 1, "a1", 2.0, 1.0),
                _x(1, 2, "b1", 102.0, 1.0),
            ]
        }
        assert validate_chrome_trace(data, strict=True) == []


class TestMalformedInput:
    def test_malformed_json_fixture_fails_the_cli(self, tmp_path, capsys):
        bad = tmp_path / "broken_trace.json"
        bad.write_text('{"traceEvents": [ {"name": "oops" ')
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "unreadable trace" in out

    def test_valid_and_malformed_mix_still_fails(self, tmp_path, capsys):
        tracer = Tracer()
        tracer.span("g", "t", "s", 0.0, 1.0)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(chrome_trace(tracer)))
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        assert main([str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ok" in out and "unreadable trace" in out

    def test_strict_flag_via_cli(self, tmp_path, capsys):
        data = {
            "traceEvents": [
                _x(1, 1, "a", 0.0, 10.0),
                _x(1, 1, "b", 5.0, 10.0),
            ]
        }
        path = tmp_path / "overlap.json"
        path.write_text(json.dumps(data))
        assert main([str(path)]) == 0
        capsys.readouterr()
        assert main(["--strict", str(path)]) == 1
        assert "overlapping spans" in capsys.readouterr().out

    def test_event_missing_keys(self):
        data = {"traceEvents": [{"ph": "X", "ts": 0.0}]}
        errors = validate_chrome_trace(data)
        assert len(errors) == 1
        assert "missing keys" in errors[0]


class TestNumberRule:
    """Validation uses attribution's number rule, so a trace that
    validates also attributes: each row below used to validate."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ts", True),
            ("ts", math.nan),
            ("ts", math.inf),
            ("dur", math.inf),
            ("dur", math.nan),
            ("dur", False),
            ("pid", "x"),
            ("pid", True),
            ("pid", math.nan),
            ("tid", "1"),
            ("tid", None),
            ("tid", -math.inf),
        ],
    )
    def test_bad_number_is_flagged_and_named(self, field, value):
        event = _x(1, 1, "a", 0.0, 1.0)
        event[field] = value
        errors = validate_chrome_trace({"traceEvents": [event]})
        assert len(errors) == 1
        assert errors[0].startswith(f"traceEvents[0]: bad {field!r} {value!r}")

    def test_bad_pid_on_a_name_event_is_flagged(self):
        event = {"name": "process_name", "ph": "M", "pid": "x", "tid": 0}
        assert validate_chrome_trace({"traceEvents": [event]}) == [
            "traceEvents[0]: bad 'pid' 'x' (want a finite number)"
        ]

    def test_unhashable_pid_is_flagged_not_a_crash(self):
        event = {"name": "a", "ph": "B", "pid": [1], "tid": 1, "ts": 0}
        errors = validate_chrome_trace({"traceEvents": [event]}, strict=True)
        assert errors == ["traceEvents[0]: bad 'pid' [1] (want a finite number)"]

    def test_what_validates_attributes(self):
        events = [_x(1, 1, "a", 0, 1), _x(2.0, 1, "b", 0.5, 2.5)]
        data = {"traceEvents": events}
        assert validate_chrome_trace(data) == []
        assert [a.total_seconds for a in attribute_trace(data)] == [1e-6, 2.5e-6]
