"""Plain-text rendering of experiment tables, and their wire form."""

from __future__ import annotations

from dataclasses import fields
from enum import Enum
from typing import Any, Callable, Sequence

#: A table column given as its header and the cell of one record.
Column = tuple[str, Callable[[Any], object]]


def render_table(
    title: str,
    headers: Sequence[str] | Sequence[Column],
    rows: Sequence[Any],
) -> str:
    """A fixed-width text table, the harness's output format.

    ``headers`` are either plain header strings, with ``rows`` the cell
    lists, or :data:`Column` pairs, with ``rows`` the records each
    column reads its cell from.  Numbers are formatted compactly (three
    decimals for floats under ten, otherwise no decimals — efficiencies
    vs milliseconds).
    """
    if headers and not isinstance(headers[0], str):
        rows = [[cell(row) for _, cell in headers] for row in rows]
        headers = [name for name, _ in headers]
    formatted = [
        [_format_cell(cell) for cell in row] for row in rows
    ]
    columns = [list(column) for column in zip(headers, *formatted)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = [title, ""]
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if abs(cell) < 10:
            return f"{cell:.3f}"
        return f"{cell:.0f}"
    return str(cell)


def as_dict(
    record: Any,
    derived: Sequence[str] = (),
    exclude: Sequence[str] = (),
) -> dict:
    """An experiment row or table as JSON-ready data.

    ``dataclasses.asdict`` with three differences: enums become their
    values and tuples lists; nested records go through their own
    ``to_dict`` (so their derived fields come along); and the
    properties named in ``derived`` are added beside the fields.
    """
    payload = {
        f.name: _plain(getattr(record, f.name))
        for f in fields(record)
        if f.name not in exclude
    }
    for name in derived:
        payload[name] = _plain(getattr(record, name))
    return payload


def _plain(value: Any) -> Any:
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value
