"""Schema check for exported Chrome traces (the CI telemetry gate).

Usage::

    python -m repro.telemetry.validate [--strict] trace.json [more.json ...]

Validates the ``traceEvents`` object format structurally — required
keys, known phases, numbers (``int`` / ``float``, finite; ``ts`` /
``dur`` non-negative), names strings (a process / thread name event's
``args.name`` too), ``args`` an object: attribution's one per-event
rule, so what validates attributes — and fails on unclosed spans: every
``"B"`` begin event must have a matching ``"E"`` end on the same
``(pid, tid)`` track. (Our own exporter
only emits complete ``"X"`` events and refuses to export a tracer with
dangling ``begin()`` calls, so this doubles as an end-to-end check that
nothing upstream leaked an open span into the file.)

``--strict`` adds per-track discipline checks: overlapping complete
spans on one ``(pid, tid)`` track, and ``"X"`` timestamps that go
backwards in file order on one track. Traces of BSP runs are
strict-clean — the step simulator emits every track in time order — and
CI validates them with ``--strict``. Strict stays **opt-in** only for
async/SSP traces, whose shared tracks legitimately interleave concurrent
work (one ``server`` track committing several units' updates).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.telemetry.analysis.attribution import _elements, _problems, load_chrome_trace

__all__ = ["main", "validate_chrome_trace"]

#: Overlap slack in microseconds: spans touching at a shared boundary
#: (end == next start) are not overlapping.
_STRICT_OVERLAP_SLACK_US = 1e-3


def validate_chrome_trace(data, *, strict: bool = False) -> list[str]:
    """Schema violations of a Chrome trace object or of
    :func:`load_chrome_trace`'s (empty means valid); rows the load built
    passed the per-event rule already and are not checked again."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"top level must be an object, got {type(data).__name__}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if not events:
        errors.append("'traceEvents' is empty")
    complete: dict[tuple, list[tuple[float, float, str, int]]] = {}
    last_ts: dict[tuple, tuple[float, int]] = {}
    open_stacks: dict[tuple, list[str]] = {}
    for index, row, event in _elements(data):
        if row is None:
            where = f"traceEvents[{index}]"
            problems = _problems(event)
            errors.extend(f"{where}: {problem}" for problem in problems)
            track = None if problems else (event["pid"], event["tid"])
            if track and event["ph"] == "B":
                open_stacks.setdefault(track, []).append(event["name"])
            elif track and event["ph"] == "E":
                stack = open_stacks.get(track)
                if not stack:
                    errors.append(f"{where}: 'E' event with no open 'B' span")
                else:
                    stack.pop()
        elif strict:
            name, ts, dur, pid, tid, _ = row
            track, ts = (pid, tid), float(ts)
            complete.setdefault(track, []).append((ts, ts + float(dur), name, index))
            prev = last_ts.get(track)
            if prev is not None and ts < prev[0]:
                errors.append(
                    f"traceEvents[{index}]: out-of-order 'ts' {ts:g} on pid={pid} "
                    f"tid={tid} (follows traceEvents[{prev[1]}] at ts {prev[0]:g})"
                )
            last_ts[track] = (ts, index)
    for (pid, tid), stack in sorted(open_stacks.items()):
        for name in stack:
            errors.append(f"unclosed span {name!r} on pid={pid} tid={tid}")
    if strict:
        for (pid, tid), spans in sorted(complete.items()):
            spans.sort()
            for (s0, e0, n0, i0), (s1, e1, n1, i1) in zip(spans, spans[1:]):
                if s1 < e0 - _STRICT_OVERLAP_SLACK_US:
                    errors.append(
                        f"overlapping spans on pid={pid} tid={tid}: "
                        f"{n0!r} (traceEvents[{i0}], ends {e0:g}) overlaps "
                        f"{n1!r} (traceEvents[{i1}], starts {s1:g})"
                    )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="TRACE.json", type=Path)
    parser.add_argument(
        "--strict", action="store_true",
        help="also flag overlapping spans and backwards timestamps "
        "per track (clean on BSP traces; opt-in because the shared "
        "tracks of async/SSP traces overlap legitimately)",
    )
    args = parser.parse_args(argv)
    status = 0
    for path in args.paths:
        try:
            data = load_chrome_trace(path)
        except (OSError, ValueError) as error:
            reason = str(error).removeprefix(f"{path}: ")
            print(f"{path}: unreadable trace: {reason}")
            status = 1
            continue
        errors = validate_chrome_trace(data, strict=args.strict)
        if errors:
            status = 1
            print(f"{path}: INVALID ({len(errors)} problems)")
            for error in errors:
                print(f"  - {error}")
        else:
            events = data["traceEvents"]
            spans = sum(type(event) is tuple for event in events)
            print(f"{path}: ok ({len(events)} events, {spans} spans)")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
