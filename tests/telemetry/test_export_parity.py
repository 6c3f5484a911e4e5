"""The streamed Chrome writer against the whole-document oracle, byte for byte.

``write_chrome_trace`` reads the tracers' span rows and encodes events a
chunk at a time; ``export_oracle`` is the exporter it replaced, which built
every event dict, then the whole JSON string. The file must be the oracle's
``json.dumps(chrome_trace(...)) + "\\n"`` exactly: event order, process and
thread ids, float reprs, string escapes and args key order.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from export_oracle import chrome_trace as oracle_chrome_trace
from export_oracle import write_chrome_trace as oracle_write_chrome_trace
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.config import FAST_CONFIG
from repro.harness.runner import ExperimentRunner
from repro.telemetry import Telemetry, Tracer, export
from repro.telemetry.export import chrome_trace, write_chrome_trace

GROUPS = ["engine", "sim:10Mbps", "sim:1Gbps"]
TRACKS = ["worker0", "worker1", "link:cross:rack1", "compute", "server", "codec:w0"]
NAMES = ["compute", "push", "layer3.conv1/weight", 'quote "q"', "tab\tnewline\n", "µs→"]
ARG_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["push", "pull", "é"]),
    st.none(),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-300]),
)
TIMES = st.floats(-1e3, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def spans(draw):
    start = draw(TIMES)
    end = start + draw(st.sampled_from([0.0, 1e-9, 0.125, 0.1, 7.0]))
    args = draw(
        st.dictionaries(
            st.sampled_from(["step", "worker", "phase", "update"]),
            ARG_VALUES,
            max_size=3,
        )
    )
    return (
        draw(st.sampled_from(GROUPS)),
        draw(st.sampled_from(TRACKS)),
        draw(st.sampled_from(NAMES)),
        start,
        end,
        args,
    )


@st.composite
def session_lists(draw):
    """Several sessions, labelled or not (a repeated label shares its
    processes), each a tracer or a telemetry bundle, some empty."""
    sessions = []
    for _ in range(draw(st.integers(0, 4))):
        label = draw(st.sampled_from(["", "run", "3LC (s=1.00)", "run"]))
        holder = Telemetry() if draw(st.booleans()) else Tracer()
        tracer = getattr(holder, "tracer", holder)
        for group, track, name, start, end, args in draw(st.lists(spans(), max_size=30)):
            tracer.span(group, track, name, start, end, **args)
        sessions.append((label, holder))
    return sessions


def written(sessions, chunk: int) -> tuple[int, str]:
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(export, "_CHUNK_EVENTS", chunk)
        path = Path(tmp) / "trace.json"
        count = write_chrome_trace(path, sessions)
        return count, path.read_text()


class TestStreamedWriterParity:
    @settings(deadline=None)
    @given(session_lists(), st.integers(1, 5))
    def test_file_is_the_oracle_document(self, sessions, chunk):
        expected = oracle_chrome_trace(sessions)
        count, text = written(sessions, chunk)
        assert text == json.dumps(expected) + "\n"
        assert count == len(expected["traceEvents"])
        assert chrome_trace(sessions) == expected

    @given(st.lists(spans(), min_size=1, max_size=40))
    def test_bare_tracer_and_telemetry(self, rows):
        telemetry = Telemetry()
        for group, track, name, start, end, args in rows:
            telemetry.tracer.span(group, track, name, start, end, **args)
        for session in (telemetry, telemetry.tracer):
            expected = json.dumps(oracle_chrome_trace(session)) + "\n"
            assert written(session, 7)[1] == expected

    def test_empty_tracer(self, tmp_path):
        assert written(Tracer(), 3) == (0, '{"traceEvents": [], "displayTimeUnit": "ms"}\n')
        assert written([], 3)[1] == json.dumps(oracle_chrome_trace([])) + "\n"

    def test_real_hier_trace_through_the_default_chunk(self, tmp_path):
        """A traced multi-rack hier run spans several default chunks."""
        config = FAST_CONFIG.scaled(
            standard_steps=6,
            eval_points=1,
            num_workers=4,
            topology="hier",
            racks=2,
            rack_size=2,
            telemetry=True,
            sim_overlap=True,
        )
        runner = ExperimentRunner(config)
        runner.run("3LC (s=1.00)", 1.0)
        runner.run("32-bit float", 1.0)
        sessions = runner.telemetry_sessions
        ours, oracle = tmp_path / "ours.json", tmp_path / "oracle.json"
        count = write_chrome_trace(ours, sessions)
        assert count > 2 * export._CHUNK_EVENTS
        assert count == oracle_write_chrome_trace(oracle, sessions)
        assert ours.read_bytes() == oracle.read_bytes()


class TestWriterRefusals:
    def test_unclosed_span_writes_nothing(self, tmp_path):
        tracer = Tracer()
        tracer.span("g", "t", "done", 0.0, 1.0)
        tracer.begin("g", "t", "dangling", 2.0)
        path = tmp_path / "trace.json"
        with pytest.raises(RuntimeError, match="dangling"):
            write_chrome_trace(path, [("a", Tracer()), ("b", tracer)])
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_arg_fails_and_leaves_no_file(self, tmp_path, bad):
        """Span times cannot be non-finite; an arg can, and the writer
        refuses to put a ``NaN`` / ``Infinity`` token in the file."""
        tracer = Tracer()
        tracer.span("g", "t", "n", 0.0, 1.0, ratio=bad)
        path = tmp_path / "trace.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_chrome_trace(path, tracer)
        assert not path.exists()
