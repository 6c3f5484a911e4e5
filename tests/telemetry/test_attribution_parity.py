"""The sweep-line attribution against the quadratic oracle, byte for byte.

``repro.telemetry.analysis.attribution`` locates each step window's spans
by bisection and reads every slice's winner off a heap;
``attribution_oracle`` is the code it replaced — every span clipped against
every window, every slice tested against every clipped span. Nothing in the
report may differ: bucket seconds to the last float bit (sums accumulate in
the same slice order) and the first-seen order of every bucket, worker and
rack key, which ``json.dumps`` of the report makes one comparison.
"""

import json

from attribution_oracle import oracle_attribute_group, oracle_attribute_trace
from hypothesis import given
from hypothesis import strategies as st

from repro.harness.config import FAST_CONFIG
from repro.harness.runner import ExperimentRunner
from repro.telemetry import Tracer
from repro.telemetry.analysis import (
    TraceSpan,
    attribute_group,
    attribute_trace,
    bottleneck_report,
)
from repro.telemetry.export import chrome_trace

#: Every branch of ``classify`` / ``_rack_of`` / the worker fallback.
TRACKS = [
    "compute",
    "codec",
    "codec:up",
    "server",
    "server:shard1",
    "link:rack0",
    "link:cross:rack1",
    "link:up",
    "outage:rack0",
    "outage:cross:rack1",
    "worker0",
    "worker3",
    "workerX",
    "rack1",
    "rack2:agg",
    "rackless",
    "misc",
]
NAMES = ["backward", "backward:l3", "compute", "compress", "pull-decode", "wait", "xfer"]
#: Tick lengths: 0.125 keeps sums exact, 0.1 and 1e-3 / 3 make every slice
#: length and every running sum round, so accumulation order shows.
TICKS = [0.125, 0.1, 1e-3 / 3]


@st.composite
def span_sets(draw):
    """Interleaved groups on a coarse grid, so endpoints coincide often."""
    tick = draw(st.sampled_from(TICKS))
    stepped = draw(st.booleans())
    step_ticks = draw(st.integers(1, 6))
    spans = []
    for _ in range(draw(st.integers(0, 24))):
        start = draw(st.integers(0, 20))
        # Zero-duration spans included; long ones cross several windows.
        ticks = draw(st.sampled_from([0, 0, 1, 1, 2, 3, 5, 9, 14]))
        args = {}
        if stepped and draw(st.integers(0, 4)):
            # Mostly the window the span starts in; sometimes a stale or
            # early step number, which moves that window's beginning.
            args["step"] = start // step_ticks + draw(st.sampled_from([0, 0, 0, 1, -1]))
        if not draw(st.integers(0, 3)):
            args["worker"] = draw(st.sampled_from([0, 1, 5, None]))
        spans.append(
            TraceSpan(
                group=draw(st.sampled_from(["sim:a", "sim:b", "engine"])),
                track=draw(st.sampled_from(TRACKS)),
                name=draw(st.sampled_from(NAMES)),
                start=start * tick,
                end=(start + ticks) * tick,
                args=args,
            )
        )
    return spans


def report_json(attributions) -> str:
    return json.dumps(bottleneck_report(attributions))


def as_chrome(spans) -> dict:
    """The span set as the exporter writes it (µs, ``"M"`` name events)."""
    tracer = Tracer()
    for span in spans:
        tracer.span(
            span.group, span.track, span.name, span.start, span.end, **span.args
        )
    return chrome_trace(tracer)


class TestOracleParity:
    @given(span_sets())
    def test_trace_report_is_byte_identical(self, spans):
        assert report_json(attribute_trace(spans)) == report_json(
            oracle_attribute_trace(spans)
        )

    @given(span_sets())
    def test_each_group_alone_is_byte_identical(self, spans):
        # ``attribute_group`` filters the mixed list itself; a group with
        # no spans at all is one empty window in both.
        for group in ("sim:a", "sim:b", "engine", "absent"):
            assert report_json([attribute_group(spans, group)]) == report_json(
                [oracle_attribute_group(spans, group)]
            )

    @given(span_sets())
    def test_chrome_path_is_byte_identical(self, spans):
        data = as_chrome(spans)
        assert report_json(attribute_trace(data)) == report_json(
            oracle_attribute_trace(data)
        )

    def test_real_hier_trace(self):
        """A traced multi-rack hier run: the engine group plus one sim group
        per link, six step windows each, exported through ``chrome_trace``."""
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
        data = chrome_trace(runner.telemetry_sessions)
        ours = attribute_trace(data)
        assert len(ours) >= 2 and all(len(a.steps) == 6 for a in ours)
        assert report_json(ours) == report_json(oracle_attribute_trace(data))
