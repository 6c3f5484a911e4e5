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
from itertools import islice
from pathlib import Path

__all__ = [
    "chrome_trace", "metric_rows", "write_chrome_trace", "write_metric_snapshots"
]


def _sessions(sessions_or_tracer) -> list[tuple[str, object]]:
    """Normalize to ``[(label, tracer_or_telemetry)]``; a tracer with an
    unclosed span raises (:meth:`Tracer.check_closed`).

    Accepts a bare :class:`Tracer`, a :class:`Telemetry` bundle, or an
    iterable of ``(label, tracer_or_telemetry)`` pairs.
    """
    if hasattr(sessions_or_tracer, "rows") or hasattr(sessions_or_tracer, "tracer"):
        sessions_or_tracer = [("", sessions_or_tracer)]
    sessions = [(label, session) for label, session in sessions_or_tracer]
    for _, session in sessions:
        _tracer(session).check_closed()
    return sessions


def _tracer(session):
    return session.tracer if hasattr(session, "tracer") else session


def _name_event(kind: str, pid: int, tid: int, name: str) -> dict:
    """A ``"M"`` metadata event naming a process or a thread."""
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid, "args": {"name": name}}


def _events(sessions):
    """Every Chrome event of ``sessions`` in file order, off the tracers' rows:
    a ``"M"`` name event where a group / track first appears, an ``"X"`` per span."""
    pid_of: dict[str, int] = {}
    tid_of: dict[tuple[int, str], int] = {}
    threads: dict[int, int] = {}
    for label, session in _sessions(sessions):
        tracer = _tracer(session)
        tracks = list(tracer.tracks)
        place_of: list[tuple[int, int] | None] = [None] * len(tracks)
        for track_id, name, start, end, args in tracer.rows():
            place = place_of[track_id]
            if place is None:
                group, track = tracks[track_id]
                process = f"{label}:{group}" if label else group
                pid = pid_of.get(process)
                if pid is None:
                    pid = pid_of[process] = len(pid_of) + 1
                    yield _name_event("process_name", pid, 0, process)
                tid = tid_of.get((pid, track))
                if tid is None:
                    tid = threads[pid] = threads.get(pid, 0) + 1
                    tid_of[(pid, track)] = tid
                    yield _name_event("thread_name", pid, tid, track)
                place = place_of[track_id] = (pid, tid)
            event = {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": place[0],
                "tid": place[1],
            }
            if args:
                event["args"] = dict(args)
            yield event


def chrome_trace(sessions) -> dict:
    """The ``{"traceEvents": [...]}`` object for Perfetto, whole. Session
    labels prefix process names, so several runs share one timeline file."""
    return {"traceEvents": list(_events(sessions)), "displayTimeUnit": "ms"}


#: Events per ``json.dumps`` call of the streamed writer.
_CHUNK_EVENTS = 1024


def write_chrome_trace(path, sessions) -> int:
    """Write ``json.dumps(chrome_trace(sessions)) + "\\n"``, streamed a
    chunk of events at a time; returns the event count. A ``NaN`` /
    ``Infinity`` arg fails the write instead of reaching the file."""
    sessions = _sessions(sessions)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    events, count = _events(sessions), 0
    try:
        with path.open("w") as handle:
            handle.write('{"traceEvents": [')
            while chunk := list(islice(events, _CHUNK_EVENTS)):
                text = json.dumps(chunk, allow_nan=False)[1:-1]
                handle.write(f", {text}" if count else text)
                count += len(chunk)
            handle.write('], "displayTimeUnit": "ms"}\n')
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return count


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
    rows = metric_rows(sessions)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return len(rows)
