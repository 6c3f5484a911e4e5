"""Human-readable formatting helpers for harness output."""

from __future__ import annotations

from typing import Sequence

__all__ = ["human_bytes", "format_table"]

_BYTE_UNITS = ["B", "KiB", "MiB", "GiB", "TiB"]


def human_bytes(n: float) -> str:
    """Format a byte count with a binary-prefix unit, e.g. ``1.50 MiB``."""
    n = float(n)
    for unit in _BYTE_UNITS[:-1]:
        if abs(n) < 1024.0:
            return f"{n:.2f} {unit}"
        n /= 1024.0
    return f"{n:.2f} {_BYTE_UNITS[-1]}"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render a fixed-width text table.

    Columns are sized to their widest cell; numeric-looking cells are
    right-aligned, text cells left-aligned. Used by the harness to print
    paper-style tables in the terminal.
    """
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if _is_numeric(cell):
                parts.append(cell.rjust(widths[i]))
            else:
                parts.append(cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell.rstrip("x×%"))
        return True
    except ValueError:
        return False
