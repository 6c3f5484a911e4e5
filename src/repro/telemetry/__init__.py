"""Telemetry: metrics registry + span tracing + timeline exporters.

One :class:`Telemetry` session bundles the two instruments a run needs —
a :class:`~repro.telemetry.metrics.MetricsRegistry` for labeled
counters/gauges/histograms and a :class:`~repro.telemetry.tracing.Tracer`
for simulated-clock spans — plus per-step registry snapshots
for the JSONL exporter. :func:`~repro.telemetry.training.trace_training`
fills one from a finished run's step logs, and the network simulators
trace their replays into its tracer; exporters in
:mod:`repro.telemetry.export` turn a session into a Perfetto-loadable
Chrome trace, JSONL metric rows, or a text summary. With telemetry off no
session exists at all.

The :mod:`repro.telemetry.analysis` subpackage consumes what this layer
records: critical-path attribution and bottleneck reports, and trace
diffing.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    series_key,
)
from repro.telemetry.tracing import Span, Tracer
from repro.telemetry.training import trace_training

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "series_key",
    "trace_training",
]


class Telemetry:
    """Per-run telemetry session: registry + tracer + step snapshots."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.step_snapshots: list[dict] = []

    def snapshot_step(self, **meta) -> None:
        """Capture the registry state as one JSONL row (cumulative
        totals at this step, plus caller-supplied metadata)."""
        self.step_snapshots.append({**meta, "metrics": self.registry.snapshot()})

    def summary(self) -> dict:
        """JSON-ready rollup: metric totals plus per-track span stats.

        This is what rides on ``RunResult.telemetry_summary`` and
        round-trips through ``results_io``.
        """
        snapshot = self.registry.snapshot()
        span_stats = {
            f"{group}/{track}": {"count": count, "busy_seconds": busy}
            for (group, track), count, busy in sorted(self.tracer.track_totals())
        }
        return {
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "spans": span_stats,
        }
