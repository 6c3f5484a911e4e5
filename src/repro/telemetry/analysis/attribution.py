"""Critical-path attribution: step time → exhaustive cost buckets.

The simulators trace every piece of work they schedule (compute,
per-record codec slots, per-link transfers, server serialization,
outage floors) as closed spans on named tracks. Attribution partitions
each step's time window into elementary slices at every span boundary
and charges each slice to exactly one bucket:

``compute``
    some worker's backward pass is running;
``codec``
    no compute, but compression / decompression / server apply work is;
``wire:<route>``
    only transfers are in flight — the slice charges the transfer that
    *ends last* (the one on the critical path out of the slice);
``outage:<route>``
    nothing productive is scheduled and an injected outage floor is
    holding a route down;
``barrier_wait``
    nothing at all is scheduled — pure dependency / barrier stall.

Because the buckets partition the window, their sums reconcile with
the simulated step time **by construction** (to float addition error,
well under the 1e-6 the CI gate asserts). That makes the ranked
report trustworthy: a bucket's share *is* its share of the step.

Step windows come from span ``step`` args: consecutive steps lay out
contiguously on the simulators' trace clocks (``trace_offset``), so
step *k*'s window runs from its earliest span start to step *k+1*'s.
Traces without step args (per-update event streams) attribute as one
window spanning the whole run.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from operator import itemgetter
from pathlib import Path

from repro.telemetry.tracing import _SHAREABLE, Span
from repro.utils.format import format_table

__all__ = [
    "RunAttribution",
    "StepAttribution",
    "TraceSpan",
    "attribute_group",
    "attribute_trace",
    "bottleneck_report",
    "classify",
    "load_chrome_rows",
    "load_chrome_trace",
    "report_text",
    "rows_from_chrome",
    "spans_from_chrome",
    "spans_from_tracer",
]

REPORT_SCHEMA = "repro.bottleneck-report/v1"

#: Lower number wins when spans of several kinds cover one slice.
_PRIORITY = {"compute": 0, "codec": 1, "wire": 2, "barrier": 3, "outage": 4}

#: JSON numbers, exactly: ``bool`` is an ``int`` only to ``isinstance``.
_NUMBER = (int, float)
_INF = float("inf")
_REQUIRED = frozenset(("name", "ph", "pid", "tid"))
#: Known phase -> its keys that must be a time (finite number >= 0).
_TIMED = {"X": ("ts", "dur"), **dict.fromkeys("BEi", ("ts",)), "M": (), "C": ()}
#: ``"M"`` events whose ``args.name`` names a process / a thread.
_NAMING = ("process_name", "thread_name")


#: The named view of a span row ``(group, track, name, start, end, args)``:
#: ``group`` is the Chrome process (session label included), ``track`` its thread.
TraceSpan = Span


def _finite(value) -> bool:
    """A JSON number (``int`` or ``float``, not ``bool``) and finite."""
    return type(value) in _NUMBER and -_INF < value < _INF


def _problems(event) -> list[str]:
    """Why one ``traceEvents`` element is malformed (empty: it is not) — the
    one per-event rule. Only an ``"X"`` event it passes becomes a row."""
    if not isinstance(event, dict):
        return ["not an object"]
    if not event.keys() >= _REQUIRED:
        return [f"missing keys {sorted(_REQUIRED - event.keys())}"]
    phase = event["ph"]
    if not (isinstance(phase, str) and phase in _TIMED):
        return [f"unknown phase {phase!r}"]
    if not (_finite(event["pid"]) and _finite(event["tid"])):
        bad = [key for key in ("pid", "tid") if not _finite(event[key])]
        return [f"bad {key!r} {event[key]!r} (want a finite number)" for key in bad]
    problems = []  # a loop and inline tests: every span of a load runs this
    name = event["name"]
    if type(name) is not str:
        problems.append(f"bad 'name' {name!r} (want a string)")
    for key in _TIMED[phase]:
        value = event.get(key)
        if not (type(value) in _NUMBER and 0 <= value < _INF):
            problems.append(f"bad {key!r} {value!r} (want finite number >= 0)")
    if "args" in event and not isinstance(event["args"], dict):
        problems.append(f"bad 'args' {event['args']!r} (want an object)")
    elif phase == "M" and name in _NAMING:
        # A process / thread name keys the rows' groups and tracks.
        value = event.get("args", {}).get("name")
        if type(value) is not str:
            problems.append(f"bad 'args.name' {value!r} (want a string)")
    return problems


def _row(event, shared: dict) -> tuple | None:
    """``(name, ts, dur, pid, tid, args)`` of an ``"X"`` event that passes
    :func:`_problems`, else ``None``. ``shared`` is one load's table: a name
    interns under itself, ``args`` of ``int`` / ``str`` / ``None`` values
    under its items (``1``, ``1.0`` and ``True`` are equal but never share)."""
    if not (isinstance(event, dict) and event.get("ph") == "X") or _problems(event):
        return None
    name, args = event["name"], event.get("args") or {}
    if _SHAREABLE.issuperset(map(type, args.values())):
        args = shared.setdefault(tuple(args.items()), args)
    name = shared.setdefault(name, name)
    return name, event["ts"], event["dur"], event["pid"], event["tid"], args


def load_chrome_trace(path) -> dict:
    """Read a Chrome ``traceEvents`` JSON file, building each element of the
    top-level list that :func:`_row` accepts into its row while the JSON
    parses; the rest (metadata, other phases, malformed events) stay dicts.
    Malformed JSON (truncated included) or a top level that is not an
    object raises ``ValueError`` naming the path."""
    text, shared, built = Path(path).read_text(), {}, 0

    def hook(obj: dict):
        nonlocal built
        row = _row(obj, shared)
        built += row is not None
        return obj if row is None else row

    try:
        data = json.loads(text, object_hook=hook)
        events = data.get("traceEvents") if isinstance(data, dict) else None
        listed = sum(type(e) is tuple for e in events) if type(events) is list else 0
        if built != listed:
            # The hook sees every object: one outside the list became a row.
            data = json.loads(text)
            events = data.get("traceEvents") if isinstance(data, dict) else None
            if type(events) is list:
                events[:] = [_row(event, shared) or event for event in events]
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not a Chrome trace: {error}") from None
    if not isinstance(data, dict):
        kind = type(data).__name__
        raise ValueError(f"{path}: not a Chrome trace: top level is a {kind}")
    return data


def load_chrome_rows(path) -> list[tuple]:
    """:func:`rows_from_chrome` of :func:`load_chrome_trace` as a list; a bad
    event's ``ValueError`` names the path too."""
    data = load_chrome_trace(path)
    try:
        return list(rows_from_chrome(data))
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


def _elements(data: dict):
    """``(index, row, event)`` per ``traceEvents`` element; ``row`` is the
    element if :func:`load_chrome_trace` built it, else :func:`_row`'s."""
    events, shared = data.get("traceEvents"), {}
    for index, event in enumerate(events if isinstance(events, list) else ()):
        yield index, event if type(event) is tuple else _row(event, shared), event


def rows_from_chrome(data: dict):
    """Complete (``"X"``) events of a Chrome trace as span rows
    ``(group, track, name, start, end, args)``, in file order.

    Process / thread names come from the ``"M"`` metadata events the
    exporter writes; microsecond timestamps convert back to seconds. Equal
    ``args`` may be one shared dict: read it only. An ``"X"`` or ``"M"``
    event that fails the validator's rule raises its ``ValueError``.
    """
    process_of: dict[int, str] = {}
    track_of: dict[tuple[int, int], str] = {}
    for index, row, event in _elements(data):
        if row is None:
            if isinstance(event, dict) and event.get("ph") in ("X", "M"):
                problems = _problems(event)
                if problems:
                    raise ValueError(f"traceEvents[{index}]: {problems[0]}")
                if event["name"] == "process_name":
                    process_of[event["pid"]] = event["args"]["name"]
                elif event["name"] == "thread_name":
                    track_of[(event["pid"], event["tid"])] = event["args"]["name"]
            continue
        name, ts, dur, pid, tid, args = row
        group, track = process_of.get(pid), track_of.get((pid, tid))
        start = float(ts) / 1e6
        yield (
            f"pid{pid}" if group is None else group,
            f"tid{tid}" if track is None else track,
            name, start, start + float(dur) / 1e6, args,
        )


def spans_from_chrome(data: dict) -> list[TraceSpan]:
    """:func:`rows_from_chrome` as :class:`TraceSpan` views."""
    return list(map(TraceSpan._make, rows_from_chrome(data)))


def spans_from_tracer(tracer, label: str = "") -> list[tuple]:
    """A live :class:`~repro.telemetry.tracing.Tracer`'s span rows. ``label``
    prefixes group names as the Chrome exporter prefixes process names, so
    live and exported attributions key identically."""
    prefix = f"{label}:" if label else ""
    tracks = [(f"{prefix}{group}", track) for group, track in tracer.tracks]
    rows = tracer.rows()
    return [(*tracks[t], name, start, end, args) for t, name, start, end, args in rows]


def classify(track: str, name: str) -> tuple[str, str]:
    """Map a span's (track, name) to ``(kind, bucket)``.

    ``kind`` drives slice priority (see module docstring); ``bucket``
    is the report key — per-route for wire and outage kinds.
    """
    if track.startswith("link:"):
        return "wire", track.replace("link:", "wire:", 1)
    if track.startswith("outage:"):
        return "outage", track
    if track.startswith(("codec", "server")):
        return "codec", "codec"
    if track == "compute":
        # The replay's shared compute track carries "backward" plus the
        # serialized pull decode.
        return ("compute", "compute") if name.startswith("backward") else (
            "codec", "codec"
        )
    if track.startswith(("worker", "rack")):
        if name.startswith("compute"):
            return "compute", "compute"
        if "wait" in name:
            return "barrier", "barrier_wait"
        # compress / push-compress / pull-decompress
        return "codec", "codec"
    return "barrier", "barrier_wait"


def _rack_of(track: str) -> str | None:
    """Rack label for a track, when one is encoded in its route/name."""
    for prefix in ("link:", "outage:"):
        if track.startswith(prefix):
            track = track[len(prefix):]
            break
    if track.startswith("cross:"):
        track = track[len("cross:"):]
    if track.startswith("rack"):
        suffix = track[len("rack"):]
        if suffix.isdigit():
            return f"rack{suffix}"
    return None


@dataclass(frozen=True)
class StepAttribution:
    """One step window's exhaustive decomposition."""

    step: int | None
    start: float
    end: float
    buckets: dict[str, float]

    @property
    def total_seconds(self) -> float:
        return self.end - self.start

    @property
    def reconciliation_error(self) -> float:
        return abs(sum(self.buckets.values()) - self.total_seconds)


@dataclass(frozen=True)
class RunAttribution:
    """One trace group's attribution across every step window."""

    group: str
    steps: tuple[StepAttribution, ...]
    per_worker: dict[str, dict[str, float]]
    per_rack: dict[str, dict[str, float]]

    @property
    def total_seconds(self) -> float:
        return sum(step.total_seconds for step in self.steps)

    @property
    def buckets(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for step in self.steps:
            for bucket, seconds in step.buckets.items():
                totals[bucket] = totals.get(bucket, 0.0) + seconds
        return totals

    @property
    def max_reconciliation_error(self) -> float:
        return max((step.reconciliation_error for step in self.steps), default=0.0)

    def ranked(self) -> list[tuple[str, float]]:
        """Buckets by descending seconds (the bottleneck order)."""
        return sorted(self.buckets.items(), key=lambda kv: (-kv[1], kv[0]))


def _step_windows(
    starts: dict[int, float], trace_start: float, trace_end: float
) -> list[tuple[int | None, float, float]]:
    """Tile ``(step, start, end)`` windows over the group's clock.

    ``starts`` is each step's earliest span start. Steps tile
    contiguously (the simulators advance ``trace_offset`` by each
    step's duration), so window *k* ends where *k+1* begins; the
    last window ends at the group's latest span end. Spans without a
    ``step`` arg fall into whichever window contains them.
    """
    if not starts:
        return [(None, trace_start, trace_end)]
    ordered = sorted(starts)
    windows: list[tuple[int | None, float, float]] = []
    for index, step in enumerate(ordered):
        begin = starts[step]
        end = starts[ordered[index + 1]] if index + 1 < len(ordered) else trace_end
        windows.append((step, begin, max(begin, end)))
    return windows


#: ``(start, end, key)``: ``key`` is the order slice winners are picked in.
_Record = tuple[float, float, tuple[int, float, str]]


def _attribute_window(
    candidates: list[_Record], begin: float, end: float
) -> dict[str, float]:
    """Exact partition of ``[begin, end]`` into bucket seconds.

    ``candidates`` are the spans that may overlap the window, in start
    order. Every clipped span boundary cuts an elementary slice; each
    slice charges the smallest ``(priority, -end, bucket)`` key covering
    it — the highest-priority kind, and within a kind the span ending
    last (for wire: the transfer the critical path exits through).
    Uncovered slices are barrier waits. One sweep: spans enter a
    min-heap at their first cut, expired ones are popped off the top
    lazily, and each slice reads its winner off the heap top.
    """
    if end <= begin:
        return {}
    cuts = {begin, end}
    entering: list[tuple[float, tuple[int, float, str]]] = []
    for start, stop, key in candidates:
        lo = start if start > begin else begin
        hi = stop if stop < end else end
        if hi > lo:
            cuts.add(lo)
            cuts.add(hi)
            entering.append((lo, key))
    edges = sorted(cuts)
    buckets: dict[str, float] = {}
    active: list[tuple[int, float, str]] = []
    index, count = 0, len(entering)
    for lo, hi in zip(edges, edges[1:]):
        while index < count and entering[index][0] <= lo:
            heappush(active, entering[index][1])
            index += 1
        # Every span endpoint is a cut, so a span still open past ``lo``
        # covers this whole slice; and ``lo`` is before the window's end,
        # so the key's true end decides that as the clipped end would.
        while active and -active[0][1] <= lo:
            heappop(active)
        bucket = active[0][2] if active else "barrier_wait"
        buckets[bucket] = buckets.get(bucket, 0.0) + (hi - lo)
    return buckets


def _track_facts(track: str, name: str) -> tuple[int, str, int | None, str | None]:
    """``(priority, bucket, track's worker, track's rack)`` of a named track."""
    kind, bucket = classify(track, name)
    suffix = track[len("worker"):] if track.startswith("worker") else ""
    worker = int(suffix) if suffix.isdigit() else None
    return _PRIORITY[kind], bucket, worker, _rack_of(track)


def attribute_group(spans: list[TraceSpan], group: str) -> RunAttribution:
    """Attribute one group's spans across its step windows.

    One pass over the spans classifies each distinct ``(track, name)``
    once, finds the step starts and accumulates the rollups. The
    records are then sorted by start, and a window's candidates (start
    before its end, running-max end after its beginning) are located by
    bisection instead of scanning the group.
    """
    facts_of: dict[tuple[str, str], tuple] = {}
    step_starts: dict[int, float] = {}
    records: list[_Record] = []
    # Busy-seconds rollups (span-duration sums, not a partition): which
    # worker / rack each bucket's work belongs to.
    per_worker: dict[str, dict[str, float]] = {}
    per_rack: dict[str, dict[str, float]] = {}
    for span_group, track, name, start, end, args in spans:
        if span_group != group:
            continue
        named = (track, name)
        if named not in facts_of:
            facts_of[named] = _track_facts(track, name)
        priority, bucket, track_worker, rack = facts_of[named]
        records.append((start, end, (priority, -end, bucket)))
        step = args.get("step")
        if isinstance(step, int):
            step_starts[step] = min(step_starts.get(step, start), start)
        worker = args.get("worker")
        if worker is None:
            worker = track_worker
        if worker is not None:
            row = per_worker.setdefault(f"worker{worker}", {})
            row[bucket] = row.get(bucket, 0.0) + (end - start)
        if rack is not None:
            row = per_rack.setdefault(rack, {})
            row[bucket] = row.get(bucket, 0.0) + (end - start)
    records.sort(key=itemgetter(0))
    starts = [record[0] for record in records]
    # reach[i]: latest end among records[:i + 1]. Non-decreasing, so the
    # first record that can outlast a window's beginning bisects too.
    reach = list(accumulate((record[1] for record in records), max))
    trace_start, trace_end = (starts[0], reach[-1]) if records else (0.0, 0.0)
    steps = tuple(
        StepAttribution(
            step=step,
            start=begin,
            end=end,
            buckets=_attribute_window(
                records[bisect_right(reach, begin):bisect_left(starts, end)],
                begin,
                end,
            ),
        )
        for step, begin, end in _step_windows(step_starts, trace_start, trace_end)
    )
    return RunAttribution(
        group=group, steps=steps, per_worker=per_worker, per_rack=per_rack
    )


def attribute_trace(data_or_spans) -> list[RunAttribution]:
    """Attribute every group of a Chrome trace (or span list).

    Groups are attributed in first-appearance order; empty groups are
    skipped.
    """
    if isinstance(data_or_spans, dict):
        data_or_spans = rows_from_chrome(data_or_spans)
    by_group: dict[str, list[tuple]] = {}
    for row in data_or_spans:
        by_group.setdefault(row[0], []).append(row)
    return [attribute_group(mine, group) for group, mine in by_group.items()]


def bottleneck_report(
    attributions: list[RunAttribution], *, top: int = 5
) -> dict:
    """JSON-ready ranked bottleneck report (``repro.bottleneck-report/v1``)."""
    sessions = []
    for attribution in attributions:
        total = attribution.total_seconds
        ranked = attribution.ranked()
        sessions.append(
            {
                "group": attribution.group,
                "total_seconds": total,
                "buckets": dict(ranked),
                "bottlenecks": [
                    {
                        "bucket": bucket,
                        "seconds": seconds,
                        "share": (seconds / total) if total > 0 else 0.0,
                    }
                    for bucket, seconds in ranked[:top]
                ],
                "steps": [
                    {
                        "step": step.step,
                        "start": step.start,
                        "end": step.end,
                        "total_seconds": step.total_seconds,
                        "buckets": step.buckets,
                    }
                    for step in attribution.steps
                ],
                "per_worker": attribution.per_worker,
                "per_rack": attribution.per_rack,
                "reconciliation": {
                    "max_abs_error": attribution.max_reconciliation_error,
                },
            }
        )
    return {"schema": REPORT_SCHEMA, "sessions": sessions}


def report_text(report: dict, *, top: int = 5) -> str:
    """Table rendering of a bottleneck report (harness / CLI output)."""
    sections = []
    for session in report.get("sessions", []):
        total = session["total_seconds"]
        rows = [
            [
                entry["bucket"],
                f"{entry['seconds']:.6f}",
                f"{100.0 * entry['share']:.1f}%",
            ]
            for entry in session["bottlenecks"][:top]
        ]
        title = (
            f"Bottlenecks: {session['group']} "
            f"({total:.6f} s over {len(session['steps'])} windows)"
        )
        sections.append(format_table(["Bucket", "Seconds", "Share"], rows, title=title))
    if not sections:
        return "Bottleneck report: no attributable groups"
    return "\n\n".join(sections)
