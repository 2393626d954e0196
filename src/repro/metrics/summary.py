"""Run metrics: delivery latency and the benchmarks' table formatter.

:func:`latency_of` reads a :class:`repro.model.runs.RunRecord` for the
rounds from a multicast to its last correct delivery, and
:func:`format_table` prints every benchmark's rows uniformly.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.model.messages import MulticastMessage
from repro.model.runs import RunRecord


def latency_of(
    record: RunRecord,
    message: MulticastMessage,
    correct_only: bool = True,
) -> Optional[int]:
    """Rounds from the multicast of ``message`` to its last delivery.

    Uniform Total Order obliges only *correct* members to deliver, so by
    default deliveries at processes that later crash are excluded: a
    faulty member that squeezes a delivery in just before (or long
    after) everyone else would otherwise skew the latency.  Pass
    ``correct_only=False`` to keep every deliverer.
    """
    sent = record.multicast_time(message)
    if sent is None:
        return None
    deliverers = record.delivered_by(message)
    if correct_only:
        deliverers = [p for p in deliverers if record.pattern.is_correct(p)]
    times = [record.delivery_time(p, message) for p in deliverers]
    times = [t for t in times if t is not None]
    if not times:
        return None
    return max(times) - sent


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a small fixed-width ASCII table (benchmark output).

    Every row must have exactly ``len(headers)`` cells; a ragged row
    raises :class:`ValueError` naming the offending row instead of
    crashing with an :class:`IndexError` (too many cells) or silently
    misaligning the table (too few).
    """
    for index, row in enumerate(rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {index} has {len(row)} cells, expected "
                f"{len(headers)} (headers: {list(headers)})"
            )
    columns = [[str(h)] for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                columns[i].append(f"{cell:.2f}")
            else:
                columns[i].append(str(cell))
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header = " | ".join(
        col[0].ljust(width) for col, width in zip(columns, widths)
    )
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for r in range(1, len(columns[0])):
        lines.append(
            " | ".join(
                col[r].ljust(width) for col, width in zip(columns, widths)
            )
        )
    return "\n".join(lines)
