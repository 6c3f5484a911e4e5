"""Span tracing over simulated clocks.

A :class:`Span` is a closed interval on some track's timeline. Tracks
are named per worker / link / rack ("worker0", "link:cross", "server")
and grouped per emitting component ("engine", "sim:10Mbps"), which maps
one-to-one onto Chrome trace_event processes (groups) and threads
(tracks) in the exporter.

Every timestamp is simulated time, handed in by the emitter: the
engine's virtual step layout and the network simulators' replay clocks
emit *completed* spans via :meth:`Tracer.span` with explicit start/end
floats (seconds on the emitter's virtual timeline; the simulators add
their own ``trace_offset`` so multi-step runs lay out contiguously). The
tracer never reads a clock of its own.

``begin``/``end`` keep a per-track stack so unbalanced instrumentation
is detectable: :meth:`check_closed` raises (and the exporters call it),
which is what the CI smoke's "fail on unclosed spans" check leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NULL_TRACER", "Span", "Tracer"]


@dataclass(frozen=True)
class Span:
    group: str
    track: str
    name: str
    start: float
    end: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; disabled instances ignore every call."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._open: dict[tuple[str, str], list[tuple[str, float, dict]]] = {}

    def span(
        self,
        group: str,
        track: str,
        name: str,
        start: float,
        end: float,
        **args,
    ) -> None:
        """Record a completed span with explicit (simulated) timestamps."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError(
                f"span {group}/{track}/{name} ends before it starts "
                f"({end} < {start})"
            )
        self.spans.append(Span(group, track, name, start, end, args))

    def begin(
        self, group: str, track: str, name: str, start: float, **args
    ) -> None:
        """Open a nested span at simulated time ``start``."""
        if not self.enabled:
            return
        self._open.setdefault((group, track), []).append((name, start, args))

    def end(self, group: str, track: str, end: float) -> None:
        """Close the innermost open span on ``(group, track)``."""
        if not self.enabled:
            return
        stack = self._open.get((group, track))
        if not stack:
            raise RuntimeError(f"end() on {group}/{track} with no open span")
        name, start, args = stack.pop()
        self.spans.append(Span(group, track, name, start, end, args))

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

    def busy_seconds(self) -> dict[tuple[str, str], float]:
        """Total span duration per (group, track) — the trace's own
        occupancy accounting, comparable against simulator link_busy."""
        busy: dict[tuple[str, str], float] = {}
        for span in self.spans:
            key = (span.group, span.track)
            busy[key] = busy.get(key, 0.0) + span.duration
        return busy


NULL_TRACER = Tracer(enabled=False)
