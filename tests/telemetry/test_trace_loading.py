"""Loading a Chrome trace as rows: the same answers as the dicts it replaces.

``load_chrome_trace`` builds each well-formed complete event into a row
``(name, ts, dur, pid, tid, args)`` while the JSON parses; every other
element of ``traceEvents`` stays the dict it was. Validation, row reading
and attribution of the loaded trace must equal those of the plain dict the
file was written from — errors, rows and types included — and the load must
hold about the file's bytes, not four times them.
"""

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import Tracer
from repro.telemetry.analysis import attribution, diff, report
from repro.telemetry.analysis.attribution import (
    attribute_trace,
    load_chrome_trace,
    rows_from_chrome,
)
from repro.telemetry.export import write_chrome_trace
from repro.telemetry.validate import main as validate_main
from repro.telemetry.validate import validate_chrome_trace

BAD_VALUES = [
    None, True, False, "x", "12", -5, -0.5, math.nan, math.inf, -math.inf, [1], {"a": 1}
]
GOOD_TIMES = st.one_of(st.integers(0, 10**6), st.floats(0, 1e6))
IDS = st.one_of(st.integers(0, 3), st.sampled_from([1.0, 2.0]))
ARG_VALUES = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([0.0, 1.0, -0.0, math.nan, math.inf]),
    st.booleans(),
    st.none(),
    st.sampled_from(["push", "w0", ""]),
)
ARGS = st.dictionaries(
    st.sampled_from(["step", "worker", "phase", "name"]), ARG_VALUES, max_size=3
)


@st.composite
def good_events(draw):
    """A well-formed event of any known phase, keys in exporter order."""
    phase = draw(st.sampled_from("XXXXMBEiC"))
    if phase == "M":
        name = draw(st.sampled_from(["process_name", "thread_name", "other"]))
        event = {"name": name, "ph": "M", "pid": draw(IDS), "tid": draw(IDS)}
        event["args"] = {"name": draw(st.sampled_from(["engine", "worker0", "sim"]))}
        return event
    event = {"name": draw(st.sampled_from(["compute", "push", "wait"])), "ph": phase}
    if phase != "C":
        event["ts"] = draw(GOOD_TIMES)
    if phase == "X":
        event["dur"] = draw(GOOD_TIMES)
    event["pid"], event["tid"] = draw(IDS), draw(IDS)
    if draw(st.booleans()):
        event["args"] = draw(ARGS)
    return event


@st.composite
def events(draw):
    """Mostly well-formed events; the rest carry one or two defects."""
    event = draw(good_events())
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        defect = draw(
            st.sampled_from(["drop", "bad", "extra", "nest", "args", "whole"])
        )
        key = draw(st.sampled_from(["name", "ph", "ts", "dur", "pid", "tid"]))
        if defect == "drop":
            event.pop(key, None)
        elif defect == "bad":
            event[key] = draw(st.sampled_from(BAD_VALUES))
        elif defect == "extra":
            event["cat"] = draw(st.sampled_from(["codec", 3, None]))
        elif defect == "nest":
            # An event-shaped object inside ``args`` stays a dict.
            event["args"] = {"inner": draw(good_events())}
        elif defect == "args":
            event["args"] = draw(st.sampled_from(["x", [1], None, 0]))
        else:
            return draw(st.sampled_from([[event], "event", 7, None]))
    return event


@st.composite
def traces(draw):
    trace = {"traceEvents": draw(st.lists(events(), max_size=12))}
    if draw(st.booleans()):
        # Event-shaped objects under another top-level key stay dicts too.
        trace["otherData"] = {"spans": draw(st.lists(good_events(), max_size=2))}
    trace["displayTimeUnit"] = "ms"
    return trace


def _outcome(read, data):
    """``repr`` of what ``read(data)`` returns (types and NaN included), or
    the exception it raises."""
    try:
        return "ok", repr(read(data))
    except (ValueError, TypeError) as error:
        return type(error).__name__, str(error)


def _rows(data):
    return list(rows_from_chrome(data))


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    return tmp_path_factory.mktemp("loading") / "trace.json"


class TestLoadedEqualsDict:
    @given(trace=traces())
    def test_validation_rows_and_attribution_match(self, trace_file, trace):
        trace_file.write_text(json.dumps(trace))
        loaded = load_chrome_trace(trace_file)
        for strict in (False, True):
            expected = validate_chrome_trace(trace, strict=strict)
            assert validate_chrome_trace(loaded, strict=strict) == expected
        assert _outcome(_rows, loaded) == _outcome(_rows, trace)
        assert _outcome(attribute_trace, loaded) == _outcome(attribute_trace, trace)
        # Only direct elements of ``traceEvents`` become rows, and only the
        # ones the validator passes as complete events.
        for before, after in zip(trace["traceEvents"], loaded["traceEvents"]):
            spans = isinstance(before, dict) and before.get("ph") == "X"
            if spans and not validate_chrome_trace({"traceEvents": [before]}):
                assert type(after) is tuple
            else:
                assert repr(after) == repr(before)
        assert repr(loaded.get("otherData")) == repr(trace.get("otherData"))

    def test_event_nested_in_args_comes_back_as_a_dict(self, tmp_path):
        inner = {"name": "a", "ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 1}
        outer = dict(inner, args={"inner": dict(inner)})
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"traceEvents": [outer], "meta": [dict(inner)]}))
        loaded = load_chrome_trace(path)
        (row,) = loaded["traceEvents"]
        assert row == ("a", 1, 2, 1, 1, {"inner": inner})
        assert loaded["meta"] == [inner]

    def test_event_shaped_top_level_is_not_a_trace_row(self, tmp_path):
        path = tmp_path / "event.json"
        event = {"name": "a", "ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 1}
        path.write_text(json.dumps(event))
        assert load_chrome_trace(path) == event


class TestSharedArgs:
    EVENTS = [
        {"name": "a", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1, "args": args}
        for args in ({"step": 1}, {"step": 1}, {"step": 1.0}, {"step": True}, {})
    ]

    def test_equal_args_share_and_equal_but_distinct_types_do_not(self, tmp_path):
        path = tmp_path / "args.json"
        path.write_text(json.dumps({"traceEvents": self.EVENTS}))
        rows = load_chrome_trace(path)["traceEvents"]
        args = [row[5] for row in rows]
        assert args[0] is args[1]
        assert [repr(a["step"]) for a in args[:4]] == ["1", "1", "1.0", "True"]
        assert len({id(a) for a in args}) == 4

    def test_sharing_lives_for_one_load(self, tmp_path):
        path = tmp_path / "args.json"
        path.write_text(json.dumps({"traceEvents": self.EVENTS}))
        first, second = load_chrome_trace(path), load_chrome_trace(path)
        assert first == second
        assert first["traceEvents"][0][5] is not second["traceEvents"][0][5]


def _synthetic_trace(path, spans: int) -> int:
    """``spans`` exporter spans shaped like the traced hier cell's: full
    float times, ``(phase, step, worker)`` args, ~500 distinct args."""
    rng = random.Random(7)
    tracer = Tracer()
    names = ["compute", "compress", "push+wait", "pull-decompress", "apply"]
    for index in range(spans):
        step, slot = divmod(index, 400)
        worker = slot % 10
        start = step * 0.0131 + rng.random() * 1e-2
        tracer.span(
            "sim:10Mbps", f"worker{worker}", names[slot % 5],
            start, start + rng.random() * 1e-3,
            phase=names[slot % 5], step=step, worker=worker,
        )
    return write_chrome_trace(path, tracer)


def test_load_holds_about_the_files_bytes(tmp_path):
    """Per-event dicts held 3.8x the file after the load and peaked at 4.8x."""
    path = tmp_path / "big.json"
    assert _synthetic_trace(path, 20_000) > 20_000
    size = path.stat().st_size
    tracemalloc.start()
    try:
        data = load_chrome_trace(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(type(event) is tuple for event in data["traceEvents"]) == 20_000
    assert held <= 1.25 * size, held / size
    assert peak <= 2.25 * size, peak / size


BAD_TIMES = [
    ("ts", "x"),
    ("ts", math.nan),
    ("ts", -5),
    ("dur", math.inf),
    ("dur", -3),
]


def _bad_trace(path, field, value):
    events = [
        {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1},
        {"name": "b", "ph": "X", "ts": 5, "dur": 5, "pid": 1, "tid": 2},
    ]
    events[1][field] = value
    path.write_text(json.dumps({"traceEvents": events}))
    (error,) = validate_chrome_trace({"traceEvents": events})
    assert error.startswith(f"traceEvents[1]: bad {field!r}"), error
    return error


class TestCliRefusesImpossibleTimes:
    """Each used to end in a traceback (``"x"``) or a wrong report."""

    @pytest.mark.parametrize("field,value", BAD_TIMES)
    def test_report_exits_2_with_the_validators_message(
        self, tmp_path, capsys, field, value
    ):
        path = tmp_path / "bad.json"
        error = _bad_trace(path, field, value)
        assert report.main([str(path), "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"{path}: {error}"
        assert "Bottlenecks" not in captured.out

    @pytest.mark.parametrize("field,value", BAD_TIMES)
    def test_diff_exits_2_naming_the_bad_file(self, tmp_path, capsys, field, value):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"traceEvents": []}))
        error = _bad_trace(bad, field, value)
        assert diff.main([str(good), str(bad)]) == 2
        assert capsys.readouterr().err.strip() == f"{bad}: {error}"


def test_validator_cli_reads_through_the_loader(tmp_path, monkeypatch, capsys):
    path = tmp_path / "trace.json"
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "g"}},
        {"name": "a", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
    ]
    path.write_text(json.dumps({"traceEvents": events}))
    loads = []
    real = attribution.load_chrome_trace

    def counting(target):
        loads.append(target)
        return real(target)

    monkeypatch.setattr("repro.telemetry.validate.load_chrome_trace", counting)
    assert validate_main([str(path)]) == 0
    assert loads == [path]
    assert capsys.readouterr().out == f"{path}: ok (2 events, 1 spans)\n"


def _span(name="a"):
    return {"name": name, "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}


def _naming(kind, name):
    return {"name": kind, "ph": "M", "pid": 1, "tid": 1, "args": {"name": name}}


#: Two-event traces whose one name is not a string, and the validator's
#: message. Each used to validate "ok (2 events, 1 spans)"; the report then
#: died on an unhashable group name or printed a span named ``['x']``.
BAD_NAMES = {
    "process [1]": (
        [_naming("process_name", [1]), _span()],
        "traceEvents[0]: bad 'args.name' [1] (want a string)",
    ),
    "thread {'a': 1}": (
        [_naming("thread_name", {"a": 1}), _span()],
        "traceEvents[0]: bad 'args.name' {'a': 1} (want a string)",
    ),
    "span ['x']": (
        [_naming("process_name", "g"), _span(["x"])],
        "traceEvents[1]: bad 'name' ['x'] (want a string)",
    ),
}


@pytest.mark.parametrize("case", BAD_NAMES)
class TestNamesAreStrings:
    def test_validator_names_the_event(self, tmp_path, capsys, case):
        events, error = BAD_NAMES[case]
        assert validate_chrome_trace({"traceEvents": events}) == [error]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": events}))
        assert validate_main([str(path)]) == 1
        assert capsys.readouterr().out == (
            f"{path}: INVALID (1 problems)\n  - {error}\n"
        )

    def test_rows_refuse_it(self, tmp_path, case):
        events, error = BAD_NAMES[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": events}))
        for data in ({"traceEvents": events}, load_chrome_trace(path)):
            with pytest.raises(ValueError) as raised:
                _rows(data)
            assert str(raised.value) == error

    def test_report_and_diff_exit_2_naming_the_file(self, tmp_path, capsys, case):
        events, error = BAD_NAMES[case]
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"traceEvents": [_span()]}))
        bad.write_text(json.dumps({"traceEvents": events}))
        assert report.main([str(bad)]) == 2
        assert capsys.readouterr().err.strip() == f"{bad}: {error}"
        assert diff.main([str(good), str(bad)]) == 2
        assert capsys.readouterr().err.strip() == f"{bad}: {error}"
