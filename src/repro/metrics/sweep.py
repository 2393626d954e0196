"""Sweep aggregation: turn per-scenario rows into campaign-level facts.

A campaign executor streams one row per finished scenario (see
:meth:`repro.workloads.runner.ScenarioResult.to_row` for the shape of an
``ok`` row; failed scenarios contribute ``status="failed"`` rows with a
traceback).  The :class:`SweepAggregator` folds them into worker-count-
independent totals as they arrive, and :func:`sweep_table` renders rows
with the same fixed-width formatter every benchmark uses.

Aggregates are pure functions of the row *multiset*: the executor feeds
rows in spec order, so the summary — like the rows themselves — is
byte-stable regardless of how many workers produced them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Sequence

from repro.metrics.summary import format_table


class SweepAggregator:
    """Streaming fold over sweep rows.

    Feed rows with :meth:`add`; read :meth:`summary` at any point.  The
    aggregator keeps counters only — it never retains rows — so it
    scales to arbitrarily long sweeps.
    """

    def __init__(self) -> None:
        self.scenarios = 0
        self.ok = 0
        self.failed = 0
        self.delivered = 0
        self.truncated = 0
        self.total_rounds = 0
        self.max_rounds = 0
        self.total_deliveries = 0
        self.total_messages = 0
        self.violations: Dict[str, int] = {}
        self.violating_scenarios = 0

    def add(self, row: Mapping[str, Any]) -> None:
        self.scenarios += 1
        if row.get("status") != "ok":
            self.failed += 1
            return
        self.ok += 1
        if row.get("delivered_everywhere"):
            self.delivered += 1
        if row.get("truncated"):
            self.truncated += 1
        rounds = int(row.get("rounds", 0))
        self.total_rounds += rounds
        self.max_rounds = max(self.max_rounds, rounds)
        self.total_deliveries += int(row.get("deliveries", 0))
        self.total_messages += int(row.get("messages", 0))
        verdicts = row.get("verdicts") or {}
        if any(count for count in verdicts.values()):
            self.violating_scenarios += 1
        for prop, count in verdicts.items():
            self.violations[prop] = self.violations.get(prop, 0) + int(count)

    def summary(self) -> Dict[str, Any]:
        """Worker-count-independent totals of everything seen so far."""
        return {
            "scenarios": self.scenarios,
            "ok": self.ok,
            "failed": self.failed,
            "delivered": self.delivered,
            "truncated": self.truncated,
            "total_rounds": self.total_rounds,
            "mean_rounds": (
                round(self.total_rounds / self.ok, 4) if self.ok else 0.0
            ),
            "max_rounds": self.max_rounds,
            "deliveries": self.total_deliveries,
            "messages": self.total_messages,
            "violations": dict(sorted(self.violations.items())),
            "violating_scenarios": self.violating_scenarios,
        }


def sweep_exit_status(summary: Mapping[str, Any]) -> int:
    """A sweep CLI's exit status: 1 when any scenario failed, violated a
    property or truncated."""
    bad = summary["failed"] + summary["violating_scenarios"] + summary["truncated"]
    return 1 if bad else 0


def summarize_rows(rows: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """One-shot aggregation (equivalent to streaming every row)."""
    aggregator = SweepAggregator()
    for row in rows:
        aggregator.add(row)
    return aggregator.summary()


def summarize_results_file(path: str) -> Dict[str, Any]:
    """Re-aggregate the row lines of a ``results.jsonl`` artifact.

    Walks the file and folds every ``type="row"`` line through a fresh
    :class:`SweepAggregator` — an integrity check for streamed or
    resumed sweeps: the result must equal the file's own trailing
    summary line (minus its ``type`` tag), whatever mix of executed,
    cached and resumed rows produced the file.
    """
    aggregator = SweepAggregator()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "row":
                aggregator.add(record)
    return aggregator.summary()


#: Default columns of :func:`sweep_table`.
SWEEP_COLUMNS = ("name", "status", "rounds", "delivered", "truncated", "violations")


def sweep_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] = SWEEP_COLUMNS,
) -> str:
    """Render sweep rows as the benchmarks' fixed-width ASCII table."""
    body: List[List[object]] = []
    for row in rows:
        cells: List[object] = []
        for column in columns:
            if column == "delivered":
                cells.append("yes" if row.get("delivered_everywhere") else "no")
            elif column == "truncated":
                cells.append("yes" if row.get("truncated") else "no")
            elif column == "violations":
                verdicts = row.get("verdicts") or {}
                total = sum(verdicts.values())
                cells.append(total if row.get("status") == "ok" else "-")
            else:
                cells.append(row.get(column, ""))
        body.append(cells)
    return format_table(tuple(columns), body)
