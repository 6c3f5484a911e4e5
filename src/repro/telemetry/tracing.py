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

Only completed spans exist, so a recorded trace has no open span to
leak; ``repro.telemetry.validate`` still checks ``"B"``/``"E"`` pairing
for trace files written elsewhere.
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

    def rows(self):
        """``(track id, name, start, end, args)`` per span, in record order; an
        id indexes ``list(tracks)``. ``args`` is shared: read only."""
        return zip(self._track, self._name, self._start, self._end, self._args)

    @property
    def spans(self) -> list[Span]:
        """Every recorded span as a :class:`Span` (built on each call)."""
        tracks = list(self.tracks)
        return [Span(*tracks[t], n, s, e, dict(a)) for t, n, s, e, a in self.rows()]

    def track_totals(self) -> list[tuple[tuple[str, str], int, float]]:
        """``((group, track), span count, busy seconds)`` per track id."""
        counts = [0] * len(self.tracks)
        busy = [0.0] * len(self.tracks)
        for track, start, end in zip(self._track, self._start, self._end):
            counts[track] += 1
            busy[track] += end - start
        return list(zip(self.tracks, counts, busy))
