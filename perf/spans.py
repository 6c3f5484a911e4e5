"""Span recorder and run-time wrappers around the repo's public functions.

The traced pass records one span per call *into* a layer, from outside:
``install`` resolves each target by dotted name when the pass starts and
swaps in a wrapper; ``uninstall`` puts the originals back, so untraced
passes run the unmodified program. A target that no longer resolves (a
later refactor renamed or removed it) is returned as missing instead of
raising — the run goes on and its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import types
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

__all__ = ["SpanRecorder", "SpanTotals", "install", "uninstall", "resolve"]


@dataclass
class SpanTotals:
    """Aggregate of every span sharing one name."""

    count: int = 0
    total: float = 0.0
    #: Duration minus the part covered by child spans.
    self_time: float = 0.0


class SpanRecorder:
    """In-memory span list: ``(name, start, end, parent_index)`` tuples."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start)

        return traced

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span (calls perf/ makes itself)."""
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, index, parent, start)

    def aggregate(self) -> dict[str, SpanTotals]:
        """Per-name count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, SpanTotals] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = totals.setdefault(name, SpanTotals())
            entry.count += 1
            entry.total += end - start
            entry.self_time += (end - start) - child[index]
        return totals


def resolve(dotted: str):
    """``(owner, attribute, original)`` for a dotted target, or ``None``.

    The longest importable prefix is the module; the rest is an attribute
    chain. On a class only a plain function defined on that class is
    accepted — wrapping a static/class method or an inherited slot would
    change binding, so those count as missing.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            if isinstance(owner, type):
                original = vars(owner)[parts[-1]]
                if not isinstance(original, types.FunctionType):
                    return None
            else:
                original = getattr(owner, parts[-1])
                if not callable(original):
                    return None
        except (AttributeError, KeyError):
            return None
        return owner, parts[-1], original
    return None


def install(recorder: SpanRecorder, targets) -> tuple[list, list[str]]:
    """Wrap every ``(span_name, dotted_target)``; returns (undo, missing)."""
    undo, missing = [], []
    for name, dotted in targets:
        found = resolve(dotted)
        if found is None:
            missing.append(dotted)
            continue
        owner, attr, original = found
        setattr(owner, attr, recorder.wrap(name, original))
        undo.append((owner, attr, original))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
