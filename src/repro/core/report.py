"""Plain-text rendering of the paper's tables and figure series.

The benchmark harness prints these next to the paper's published
values, so a reproduction run reads like the evaluation section.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

__all__ = [
    "render_table",
    "render_series",
    "render_counts",
    "fmt",
]


def fmt(value: float, digits: int = 3) -> str:
    """Format a number, printing the paper's "n/a" for NaN."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    return f"{value:.{digits}f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Monospace table with right-aligned numeric columns."""
    str_rows: List[List[str]] = []
    for row in rows:
        str_rows.append(
            [
                fmt(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        cells = []
        for i, cell in enumerate(r):
            if i == 0:
                cells.append(cell.ljust(widths[i]))
            else:
                cells.append(cell.rjust(widths[i]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def render_counts(
    counts: Dict[str, int], *, title: Optional[str] = None
) -> str:
    """One-line ``key=value`` summary of named counts, zeros omitted.

    Used by the drift and campaign reports so structured tallies render
    compactly (``model=37 baseline=3 skipped=1``) without each report
    rolling its own formatting.
    """
    body = " ".join(f"{k}={v}" for k, v in counts.items() if v)
    if not body:
        body = "none"
    return f"{title}: {body}" if title else body


def render_series(
    values: Dict[str, float],
    *,
    title: Optional[str] = None,
    unit: str = "",
    bar_width: int = 40,
) -> str:
    """ASCII bar chart for a named series (the "figure" analogue)."""
    lines = []
    if title:
        lines.append(title)
    if not values:
        return title or ""
    vmax = max(abs(v) for v in values.values()) or 1.0
    name_w = max(len(k) for k in values)
    for name, v in values.items():
        bar = "#" * max(int(round(abs(v) / vmax * bar_width)), 0)
        sign = "-" if v < 0 else ""
        lines.append(
            f"{name.ljust(name_w)}  {fmt(v, 2).rjust(8)}{unit}  {sign}{bar}"
        )
    return "\n".join(lines)
