"""Schema check for exported Chrome traces (the CI telemetry gate).

Usage::

    python -m repro.telemetry.validate [--strict] trace.json [more.json ...]

Validates the ``traceEvents`` object format structurally — required
keys, known phases, numbers by attribution's rule (``int`` / ``float``,
finite; ``ts`` / ``dur`` non-negative, so what validates attributes) —
and fails on unclosed spans: every ``"B"`` begin event must have a
matching ``"E"`` end on the same ``(pid, tid)`` track. (Our own exporter
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
import json
import sys
from pathlib import Path

from repro.telemetry.analysis.attribution import _NUMBER

__all__ = ["main", "validate_chrome_trace"]

_REQUIRED_KEYS = ("name", "ph", "pid", "tid")
_KNOWN_PHASES = frozenset("XMBEiC")
_INF = float("inf")


#: Overlap slack in microseconds: spans touching at a shared boundary
#: (end == next start) are not overlapping.
_STRICT_OVERLAP_SLACK_US = 1e-3


def _finite(value) -> bool:
    """Attribution's number rule (``int`` or ``float``, not ``bool``), finite."""
    return type(value) in _NUMBER and -_INF < value < _INF


def validate_chrome_trace(data, *, strict: bool = False) -> list[str]:
    """Return a list of schema violations (empty means valid)."""
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
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = [key for key in _REQUIRED_KEYS if key not in event]
        if missing:
            errors.append(f"{where}: missing keys {missing}")
            continue
        phase = event["ph"]
        if phase not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if not (_finite(event["pid"]) and _finite(event["tid"])):
            errors.extend(
                f"{where}: bad {key!r} {event[key]!r} (want a finite number)"
                for key in ("pid", "tid")
                if not _finite(event[key])
            )
            continue
        if phase in ("X", "B", "E", "i"):
            ts = event.get("ts")
            if not (_finite(ts) and ts >= 0):
                errors.append(f"{where}: bad 'ts' {ts!r} (want finite number >= 0)")
        if phase == "X":
            dur = event.get("dur")
            if not (_finite(dur) and dur >= 0):
                errors.append(f"{where}: bad 'dur' {dur!r} (want finite number >= 0)")
            elif strict and _finite(event.get("ts")):
                track = (event["pid"], event["tid"])
                ts = float(event["ts"])
                complete.setdefault(track, []).append(
                    (ts, ts + float(dur), str(event["name"]), index)
                )
                prev = last_ts.get(track)
                if prev is not None and ts < prev[0]:
                    errors.append(
                        f"{where}: out-of-order 'ts' {ts:g} on "
                        f"pid={track[0]} tid={track[1]} (follows "
                        f"traceEvents[{prev[1]}] at ts {prev[0]:g})"
                    )
                last_ts[track] = (ts, index)
        elif phase == "B":
            open_stacks.setdefault((event["pid"], event["tid"]), []).append(
                str(event["name"])
            )
        elif phase == "E":
            stack = open_stacks.get((event["pid"], event["tid"]))
            if not stack:
                errors.append(f"{where}: 'E' event with no open 'B' span")
            else:
                stack.pop()
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
            data = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            print(f"{path}: unreadable trace: {error}")
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
            spans = sum(1 for event in events if event.get("ph") == "X")
            print(f"{path}: ok ({len(events)} events, {spans} spans)")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
