"""The Chrome exporter as it stood before it streamed, kept as the oracle.

This is ``chrome_trace`` / ``write_chrome_trace`` (with their
``_sessions`` / ``_tracer`` helpers) as they stood when every span was a
``Span`` object and the writer built the whole event list and the whole
JSON string, code verbatim. ``test_export_parity.py`` holds the streamed
writer in ``src/`` to it byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["chrome_trace", "write_chrome_trace"]


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
                "dur": (span.end - span.start) * 1e6,
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
