"""Span tracing over simulated clocks.

A span is a closed interval on some track's timeline. Tracks are named
per worker / link / rack ("worker0", "link:cross", "server") and grouped
per emitting component ("engine", "sim:10Mbps"), which maps one-to-one
onto Chrome trace_event processes (groups) and threads (tracks) in the
exporter.

Every timestamp is simulated time, handed in by the emitter: the
engine's virtual step layout and the network simulators' replay clocks
emit *completed* spans via :meth:`Tracer.span` with explicit start/end
floats (seconds on the emitter's virtual timeline; the simulators add
their own ``trace_offset`` so multi-step runs lay out contiguously). The
tracer never reads a clock of its own, and refuses a non-finite time.

A recorded span is a *row*, not an object: an interned ``(group,
track)`` id and name, ``start`` / ``end`` in ``array('d')`` and an args
dict shared by every span with equal args. Readers walk
:meth:`Tracer.rows`; :attr:`Tracer.spans` materializes :class:`Span` objects.

``begin``/``end`` keep a per-track stack so unbalanced instrumentation
is detectable: :meth:`check_closed` raises (and the exporters call it),
which is what the CI smoke's "fail on unclosed spans" check leans on.
"""

from __future__ import annotations

from array import array
from types import MappingProxyType
from typing import NamedTuple

__all__ = ["Span", "Tracer"]

_INF = float("inf")
#: Arg types whose ``==`` is their JSON identity (unlike ``1 == 1.0 == True``).
_SHAREABLE = frozenset((int, str, type(None)))


class Span(NamedTuple):
    """One closed span: a materialized row of a :class:`Tracer`."""

    group: str
    track: str
    name: str
    start: float
    end: float
    args: dict = MappingProxyType({})

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans as rows."""

    def __init__(self) -> None:
        self.tracks: dict[tuple[str, str], int] = {}
        self._names: dict[str, str] = {}
        self._shared_args: dict[tuple, dict] = {}
        self._track = array("i")
        self._name: list[str] = []
        self._start = array("d")
        self._end = array("d")
        self._args: list[dict] = []
        self._open: dict[tuple[str, str], list[tuple[str, float, dict]]] = {}

    def span(
        self, group: str, track: str, name: str, start: float, end: float, **args
    ) -> None:
        """Record a completed span with explicit (simulated) timestamps."""
        start, end = float(start), float(end)
        if not -_INF < start <= end < _INF:
            finite = -_INF < start < _INF and -_INF < end < _INF
            problem = "ends before it starts" if finite else "has a non-finite time"
            raise ValueError(f"span {group}/{track}/{name} {problem}: {start} to {end}")
        # Lookups that can raise come first: the columns must stay in step.
        track_id = self.tracks.setdefault((group, track), len(self.tracks))
        name = self._names.setdefault(name, name)
        if _SHAREABLE.issuperset(map(type, args.values())):
            args = self._shared_args.setdefault(tuple(args.items()), args)
        self._track.append(track_id)
        self._name.append(name)
        self._start.append(start)
        self._end.append(end)
        self._args.append(args)

    def begin(self, group: str, track: str, name: str, start: float, **args) -> None:
        """Open a nested span at simulated time ``start``."""
        if not -_INF < start < _INF:
            raise ValueError(f"span {group}/{track}/{name} begins at {start}")
        self._open.setdefault((group, track), []).append((name, start, args))

    def end(self, group: str, track: str, end: float) -> None:
        """Close the innermost open span on ``(group, track)``."""
        stack = self._open.get((group, track))
        if not stack:
            raise RuntimeError(f"end() on {group}/{track} with no open span")
        name, start, args = stack[-1]
        self.span(group, track, name, start, end, **args)
        stack.pop()

    def rows(self):
        """``(track id, name, start, end, args)`` per span, in record order; an
        id indexes ``list(tracks)``. ``args`` is shared: read only."""
        return zip(self._track, self._name, self._start, self._end, self._args)

    @property
    def spans(self) -> list[Span]:
        """Every recorded span as a :class:`Span` (built on each call)."""
        tracks = list(self.tracks)
        return [Span(*tracks[t], n, s, e, dict(a)) for t, n, s, e, a in self.rows()]

    def open_spans(self) -> list[str]:
        """Human-readable ``group/track/name`` of every unclosed span."""
        return [
            f"{group}/{track}/{name}"
            for (group, track), stack in sorted(self._open.items())
            for (name, _, _) in stack
        ]

    def check_closed(self) -> None:
        """Raise if any begin() never saw its end() — exporters call this."""
        dangling = self.open_spans()
        if dangling:
            raise RuntimeError(f"unclosed spans: {', '.join(dangling)}")

    def track_totals(self) -> list[tuple[tuple[str, str], int, float]]:
        """``((group, track), span count, busy seconds)`` per track id."""
        counts = [0] * len(self.tracks)
        busy = [0.0] * len(self.tracks)
        for track, start, end in zip(self._track, self._start, self._end):
            counts[track] += 1
            busy[track] += end - start
        return list(zip(self.tracks, counts, busy))

    def busy_seconds(self) -> dict[tuple[str, str], float]:
        """Total span duration per (group, track) — the trace's own
        occupancy accounting, comparable against simulator link_busy."""
        return {key: busy for key, _, busy in self.track_totals()}
