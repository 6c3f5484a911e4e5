"""The quadratic time-slice attribution, kept as the parity oracle.

This is ``attribute_group`` / ``_attribute_window`` / ``_step_windows`` as
they stood before attribution became a sweep (commit 14fac9d), code
verbatim: every span of the group is clipped against every step window,
every elementary slice is tested against every clipped span, and
``classify`` runs once per span per window. ``test_attribution_parity.py``
holds the sweep in ``src/`` to it byte for byte — bucket values, float
bits, and the first-seen order of every bucket / worker / rack key.
"""

from __future__ import annotations

from repro.telemetry.analysis.attribution import (
    RunAttribution,
    StepAttribution,
    TraceSpan,
    _rack_of,
    classify,
    spans_from_chrome,
)

__all__ = ["oracle_attribute_group", "oracle_attribute_trace"]

#: Lower number wins when spans of several kinds cover one slice.
_PRIORITY = {"compute": 0, "codec": 1, "wire": 2, "barrier": 3, "outage": 4}


def _step_windows(spans: list[TraceSpan]) -> list[tuple[int | None, float, float]]:
    """Derive ``(step, start, end)`` windows covering the group's clock.

    Steps tile contiguously (the simulators advance ``trace_offset`` by
    each step's duration), so window *k* ends where *k+1* begins; the
    last window ends at the group's latest span end. Spans without a
    ``step`` arg fall into whichever window contains them.
    """
    starts: dict[int, float] = {}
    for span in spans:
        step = span.args.get("step")
        if isinstance(step, int):
            starts[step] = min(starts.get(step, span.start), span.start)
    trace_end = max((span.end for span in spans), default=0.0)
    if not starts:
        trace_start = min((span.start for span in spans), default=0.0)
        return [(None, trace_start, trace_end)]
    ordered = sorted(starts)
    windows: list[tuple[int | None, float, float]] = []
    for index, step in enumerate(ordered):
        begin = starts[step]
        end = starts[ordered[index + 1]] if index + 1 < len(ordered) else trace_end
        windows.append((step, begin, max(begin, end)))
    return windows


def _attribute_window(
    spans: list[TraceSpan], begin: float, end: float
) -> dict[str, float]:
    """Exact partition of ``[begin, end]`` into bucket seconds.

    Every span boundary inside the window cuts an elementary slice;
    each slice charges the highest-priority active kind (wire slices
    charge the active transfer ending last — the one the critical path
    exits through). Uncovered slices are barrier waits.
    """
    clipped: list[tuple[float, float, str, str, float]] = []
    for span in spans:
        lo = max(span.start, begin)
        hi = min(span.end, end)
        if hi <= lo:
            continue
        kind, bucket = classify(span.track, span.name)
        # A wire slice charges the transfer ending last; keep the
        # span's true end (not the clipped end) as the tie-breaker key.
        clipped.append((lo, hi, kind, bucket, span.end))
    if end <= begin:
        return {}
    cuts = {begin, end}
    for lo, hi, _, _, _ in clipped:
        cuts.add(lo)
        cuts.add(hi)
    edges = sorted(cuts)
    buckets: dict[str, float] = {}
    for lo, hi in zip(edges, edges[1:]):
        if hi <= lo:
            continue
        # Every span endpoint is a cut, so a span either covers this
        # whole elementary slice or none of it.
        best: tuple[int, float, str] | None = None
        for s_lo, s_hi, kind, bucket, true_end in clipped:
            if s_lo > lo or s_hi < hi:
                continue
            # Within one priority class prefer the span ending last
            # (meaningful for wire; harmless elsewhere).
            key = (_PRIORITY[kind], -true_end, bucket)
            if best is None or key < best:
                best = key
        bucket = best[2] if best is not None else "barrier_wait"
        buckets[bucket] = buckets.get(bucket, 0.0) + (hi - lo)
    return buckets


def oracle_attribute_group(spans: list[TraceSpan], group: str) -> RunAttribution:
    """Attribute one group's spans across its step windows."""
    mine = [span for span in spans if span.group == group]
    windows = _step_windows(mine)
    steps = tuple(
        StepAttribution(
            step=step,
            start=begin,
            end=end,
            buckets=_attribute_window(mine, begin, end),
        )
        for step, begin, end in windows
    )
    # Busy-seconds rollups (span-duration sums, not a partition): which
    # worker / rack each bucket's work belongs to.
    per_worker: dict[str, dict[str, float]] = {}
    per_rack: dict[str, dict[str, float]] = {}
    for span in mine:
        _, bucket = classify(span.track, span.name)
        worker = span.args.get("worker")
        if worker is None and span.track.startswith("worker"):
            suffix = span.track[len("worker"):]
            if suffix.isdigit():
                worker = int(suffix)
        if worker is not None:
            row = per_worker.setdefault(f"worker{worker}", {})
            row[bucket] = row.get(bucket, 0.0) + span.duration
        rack = _rack_of(span.track)
        if rack is not None:
            row = per_rack.setdefault(rack, {})
            row[bucket] = row.get(bucket, 0.0) + span.duration
    return RunAttribution(
        group=group, steps=steps, per_worker=per_worker, per_rack=per_rack
    )


def oracle_attribute_trace(data_or_spans) -> list[RunAttribution]:
    """Attribute every group of a Chrome trace (or span list).

    Groups are attributed in first-appearance order; empty groups are
    skipped.
    """
    if isinstance(data_or_spans, dict):
        spans = spans_from_chrome(data_or_spans)
    else:
        spans = list(data_or_spans)
    groups: list[str] = []
    for span in spans:
        if span.group not in groups:
            groups.append(span.group)
    return [oracle_attribute_group(spans, group) for group in groups]
