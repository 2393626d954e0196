"""Run metrics: the quantities the benchmark harness reports.

Given a :class:`repro.model.runs.RunRecord`, compute per-process step counts,
delivery latencies (multicast round -> delivery round), protocol work
distribution and the genuineness footprint (steps at processes no message
was addressed to).  Also provides a minimal fixed-width table formatter
so every benchmark prints its rows uniformly.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.model.messages import MulticastMessage
from repro.model.processes import ProcessId
from repro.model.runs import RunRecord


@dataclass(frozen=True)
class RunSummary:
    """Aggregated metrics of one run.

    Attributes:
        total_steps: steps across all processes.
        steps_per_process: individual step counts.
        idle_steps: steps charged to processes outside every destination
            group (non-zero only for non-genuine protocols).
        mean_latency: mean rounds from multicast to last correct delivery.
        max_latency: worst such latency.
        deliveries: number of delivery events.
    """

    total_steps: int
    steps_per_process: Mapping[ProcessId, int]
    idle_steps: int
    mean_latency: float
    max_latency: int
    deliveries: int


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


def summarize(record: RunRecord) -> RunSummary:
    """Compute the aggregate metrics of a finished run."""
    steps = record.step_counts()
    addressed = set()
    for m in record.multicast_messages():
        addressed |= set(m.dst)
    idle_steps = sum(
        count for p, count in steps.items() if p not in addressed
    )
    latencies = []
    for m in record.multicast_messages():
        latency = latency_of(record, m)
        if latency is not None:
            latencies.append(latency)
    return RunSummary(
        total_steps=sum(steps.values()),
        steps_per_process=dict(steps),
        idle_steps=idle_steps,
        mean_latency=statistics.mean(latencies) if latencies else 0.0,
        max_latency=max(latencies) if latencies else 0,
        deliveries=len(record.deliveries),
    )


def steps_at(record: RunRecord, processes: Iterable[ProcessId]) -> int:
    """Total steps charged to the given processes."""
    return sum(record.steps_of(p) for p in processes)


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
