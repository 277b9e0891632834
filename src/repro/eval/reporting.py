"""Plain-text table formatting for experiment output.

The experiment runner (``python -m repro.experiments``) and the examples
print the same rows/series the paper reports; these helpers render lists of
dictionaries as aligned monospace tables so the drivers stay free of
formatting clutter.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def format_table(rows: Sequence[Mapping[str, object]], title: Optional[str] = None) -> str:
    """Render ``rows`` (list of dicts sharing keys) as an aligned text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_format_cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = " | ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in rendered
    )
    pieces = []
    if title:
        pieces.append(title)
    pieces.extend([header, separator, body])
    return "\n".join(pieces)


def format_float_table(
    rows: Sequence[Mapping[str, object]],
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Like :func:`format_table` but floats are rounded to ``precision``."""
    rounded: List[Dict[str, object]] = []
    for row in rows:
        converted: Dict[str, object] = {}
        for key, value in row.items():
            if isinstance(value, float):
                converted[key] = round(value, precision)
            else:
                converted[key] = value
        rounded.append(converted)
    return format_table(rounded, title=title)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
