"""Terminal plotting for figure regeneration.

The benchmarks print the paper's figures as ASCII scatter/line charts plus
the underlying series, so results are inspectable without matplotlib
(unavailable offline). Multiple series share one canvas, each with its own
glyph and a legend line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Series", "render_plot"]

_GLYPHS = "o*x+#@%&^~"
#: Canvas size in characters.
_WIDTH, _HEIGHT = 72, 20


@dataclass(frozen=True)
class Series:
    """One named sequence of (x, y) points."""

    label: str
    points: tuple[tuple[float, float], ...]

    @classmethod
    def from_xy(cls, label: str, xs: Sequence[float], ys: Sequence[float]) -> "Series":
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        return cls(label, tuple(zip(map(float, xs), map(float, ys))))


def _bounds(series: Sequence[Series]) -> tuple[float, float, float, float]:
    xs = [p[0] for s in series for p in s.points]
    ys = [p[1] for s in series for p in s.points]
    if not xs:
        return 0.0, 1.0, 0.0, 1.0
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_min == x_max:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    if y_min == y_max:
        y_min, y_max = y_min - 0.5, y_max + 0.5
    return x_min, x_max, y_min, y_max


def render_plot(
    series: Sequence[Series],
    *,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render series on a character canvas with axes and a legend."""
    x_min, x_max, y_min, y_max = _bounds(series)
    canvas = [[" "] * _WIDTH for _ in range(_HEIGHT)]

    def place(x: float, y: float, glyph: str) -> None:
        if math.isnan(x) or math.isnan(y):
            return
        col = round((x - x_min) / (x_max - x_min) * (_WIDTH - 1))
        row = round((y - y_min) / (y_max - y_min) * (_HEIGHT - 1))
        canvas[_HEIGHT - 1 - row][col] = glyph

    for index, s in enumerate(series):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for x, y in s.points:
            place(x, y, glyph)

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} ({y_min:.4g} .. {y_max:.4g})")
    border = "+" + "-" * _WIDTH + "+"
    lines.append(border)
    lines.extend("|" + "".join(row) + "|" for row in canvas)
    lines.append(border)
    lines.append(f"{x_label} ({x_min:.4g} .. {x_max:.4g})")
    for index, s in enumerate(series):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        lines.append(f"  {glyph} {s.label}")
    return "\n".join(lines)
