"""Plain-text table / curve rendering for the benchmark harness.

The benches print the same rows and series the paper's figures report;
these helpers keep that output aligned and consistent without pulling in a
plotting dependency.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table with a separator under the header."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths, strict=True)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths, strict=True)))
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """ASCII sparkline of a recall curve (resampled to ``width`` columns)."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    return "".join(
        blocks[min(len(blocks) - 1, int(v * (len(blocks) - 1)))] for v in values
    )
