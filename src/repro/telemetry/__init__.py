"""Telemetry: metrics registry + span tracing + timeline exporters.

One :class:`Telemetry` session bundles the two instruments a run needs —
a :class:`~repro.telemetry.metrics.MetricsRegistry` for labeled
counters/gauges/histograms and a :class:`~repro.telemetry.tracing.Tracer`
for simulated-clock spans — plus per-step registry snapshots
for the JSONL exporter. The engine, the network simulators, and the
harness all report through this seam; exporters in
:mod:`repro.telemetry.export` turn a session into a Perfetto-loadable
Chrome trace, JSONL metric rows, or a text summary.

``NULL_TELEMETRY`` is the shared disabled session: every instrument it
hands out is a no-op, so instrumented code paths can hold an
unconditional reference and stay overhead-free when telemetry is off.

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
    NULL_REGISTRY,
    series_key,
)
from repro.telemetry.tracing import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "Span",
    "Telemetry",
    "Tracer",
    "series_key",
]


class Telemetry:
    """Per-run telemetry session: registry + tracer + step snapshots."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled)
        self.step_snapshots: list[dict] = []

    def snapshot_step(self, **meta) -> None:
        """Capture the registry state as one JSONL row (cumulative
        totals at this step, plus caller-supplied metadata)."""
        if not self.enabled:
            return
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


NULL_TELEMETRY = Telemetry(enabled=False)
