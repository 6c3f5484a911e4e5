"""Run analysis: critical-path attribution and trace diffing.

This package turns the raw telemetry a run records into answers:

* :mod:`~repro.telemetry.analysis.attribution` walks an exported Chrome
  trace (or a live tracer) and decomposes each simulated step into
  compute / codec / per-link wire / barrier-wait / outage-stall buckets
  via an exact time-slice partition — bucket sums reconcile with the
  simulated step time by construction.
* :mod:`~repro.telemetry.analysis.report` is the ``repro-report`` CLI
  (``python -m repro.telemetry.analysis.report``): ranked bottleneck
  tables plus a ``repro.bottleneck-report/v1`` JSON artifact.
* :mod:`~repro.telemetry.analysis.diff` aligns two traces by
  (group, step) identity and localizes regressions, naming flapped
  links from outage tracks and correlating against archived
  ``fault_summary`` rollups.
"""

from __future__ import annotations

from repro.telemetry.analysis.attribution import (
    RunAttribution,
    StepAttribution,
    TraceSpan,
    attribute_group,
    attribute_trace,
    bottleneck_report,
    classify,
    report_text,
    spans_from_chrome,
    spans_from_tracer,
)

# diff imports lazily so `python -m repro.telemetry.analysis.diff`
# doesn't trip runpy's found-in-sys.modules warning.
_LAZY = {
    "diff_report": "repro.telemetry.analysis.diff",
    "diff_text": "repro.telemetry.analysis.diff",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "RunAttribution",
    "StepAttribution",
    "TraceSpan",
    "attribute_group",
    "attribute_trace",
    "bottleneck_report",
    "classify",
    "diff_report",
    "diff_text",
    "report_text",
    "spans_from_chrome",
    "spans_from_tracer",
]
