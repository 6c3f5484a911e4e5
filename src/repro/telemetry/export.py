"""Exporters: Chrome trace_event JSON and JSONL metric snapshots.

The Chrome exporter emits the legacy ``traceEvents`` JSON object format
(loadable in Perfetto and chrome://tracing): one *process* per span
group per session and one *thread* per track, named through ``"M"``
metadata events, with every span a ``"X"`` complete event whose
``ts``/``dur`` are microseconds. Simulated clocks start at 0, so a
trace of a simulated run reads as "microseconds of virtual time".

``write_metric_snapshots`` streams per-step registry snapshots as one
JSON object per line (JSONL) — cheap to append, trivial to load into a
dataframe — followed by one ``"final": true`` row per session with the
end-of-run totals.

Both writers call :meth:`Tracer.check_closed` first, so a trace with
dangling ``begin()`` spans fails loudly instead of exporting a lie.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "chrome_trace",
    "metric_rows",
    "write_chrome_trace",
    "write_metric_snapshots",
]


def _sessions(sessions_or_tracer) -> list[tuple[str, object]]:
    """Normalize to ``[(label, tracer_or_telemetry)]``.

    Accepts a bare :class:`Tracer`, a :class:`Telemetry` bundle, or an
    iterable of ``(label, tracer_or_telemetry)`` pairs.
    """
    if hasattr(sessions_or_tracer, "spans") or hasattr(
        sessions_or_tracer, "tracer"
    ):
        return [("", sessions_or_tracer)]
    return [(label, session) for label, session in sessions_or_tracer]


def _tracer(session):
    return session.tracer if hasattr(session, "tracer") else session


def chrome_trace(sessions) -> dict:
    """Build the ``{"traceEvents": [...]}`` object for Perfetto.

    ``sessions`` is anything :func:`_sessions` accepts; session labels
    prefix process names so several runs share one timeline file.
    """
    events: list[dict] = []
    pid_of: dict[str, int] = {}
    tid_of: dict[tuple[int, str], int] = {}
    for label, session in _sessions(sessions):
        tracer = _tracer(session)
        tracer.check_closed()
        for span in tracer.spans:
            process = f"{label}:{span.group}" if label else span.group
            pid = pid_of.get(process)
            if pid is None:
                pid = pid_of[process] = len(pid_of) + 1
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": process},
                    }
                )
            tid = tid_of.get((pid, span.track))
            if tid is None:
                tid = tid_of[(pid, span.track)] = (
                    sum(1 for key in tid_of if key[0] == pid) + 1
                )
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": span.track},
                    }
                )
            event = {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
            }
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, sessions) -> int:
    """Write the Chrome trace JSON; returns the event count."""
    data = chrome_trace(sessions)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data) + "\n")
    return len(data["traceEvents"])


def metric_rows(sessions) -> list[dict]:
    """Per-step snapshot rows plus one final-totals row per session."""
    rows = []
    for label, session in _sessions(sessions):
        registry = getattr(session, "registry", None)
        if registry is None:
            continue
        for snapshot in getattr(session, "step_snapshots", ()):
            rows.append({"session": label, **snapshot})
        rows.append({"session": label, "final": True, "metrics": registry.snapshot()})
    return rows


def write_metric_snapshots(path, sessions) -> int:
    """Write JSONL metric snapshots; returns the row count."""
    for _, session in _sessions(sessions):
        _tracer(session).check_closed()
    rows = metric_rows(sessions)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return len(rows)
