"""Sweep aggregation: streaming totals and table rendering."""

import json

import pytest

from repro.metrics.sweep import (
    SweepAggregator,
    summarize_results_file,
    sweep_exit_status,
    sweep_table,
)


def _ok_row(name="r", rounds=5, delivered=True, truncated=False, violations=0):
    return {
        "name": name,
        "status": "ok",
        "delivered_everywhere": delivered,
        "truncated": truncated,
        "rounds": rounds,
        "messages": 2,
        "deliveries": 4,
        "verdicts": {"integrity": violations, "ordering": 0},
    }


def _failed_row(name="boom"):
    return {"name": name, "status": "failed", "error": "ValueError('x')"}


@pytest.fixture
def summarize_rows(tmp_path):
    """Summarise rows the way a sweep's results file is re-read: written
    as its row lines, then folded by ``summarize_results_file``."""

    def summarize(rows):
        path = tmp_path / "results.jsonl"
        path.write_text(
            json.dumps({"type": "meta"}) + "\n"
            + "".join(json.dumps({"type": "row", **row}) + "\n" for row in rows)
        )
        return summarize_results_file(str(path))

    return summarize


class TestAggregation:
    def test_streaming_matches_one_shot(self, summarize_rows):
        # Re-aggregating a results file's row lines equals the summary
        # streamed while the rows were written.
        rows = [_ok_row("a"), _ok_row("b", rounds=9, violations=2), _failed_row()]
        aggregator = SweepAggregator()
        for row in rows:
            aggregator.add(row)
        assert summarize_rows(rows) == aggregator.summary()

    def test_totals(self, summarize_rows):
        summary = summarize_rows(
            [
                _ok_row("a", rounds=4),
                _ok_row("b", rounds=8, delivered=False, truncated=True),
                _ok_row("c", rounds=6, violations=3),
                _failed_row(),
            ]
        )
        assert summary["scenarios"] == 4
        assert summary["ok"] == 3 and summary["failed"] == 1
        assert summary["delivered"] == 2 and summary["truncated"] == 1
        assert summary["total_rounds"] == 18 and summary["max_rounds"] == 8
        assert summary["mean_rounds"] == 6.0
        assert summary["violations"] == {"integrity": 3, "ordering": 0}
        assert summary["violating_scenarios"] == 1

    def test_failed_rows_do_not_pollute_run_metrics(self, summarize_rows):
        summary = summarize_rows([_failed_row(), _failed_row("boom2")])
        assert summary["failed"] == 2
        assert summary["total_rounds"] == 0
        assert summary["mean_rounds"] == 0.0
        assert summary["violations"] == {}

    def test_empty_sweep(self, summarize_rows):
        summary = summarize_rows([])
        assert summary["scenarios"] == 0
        assert summary["mean_rounds"] == 0.0


class TestExitStatus:
    """The one exit rule of ``python -m repro.campaign``."""

    @pytest.mark.parametrize(
        "rows, status",
        [
            ([], 0),
            ([_ok_row()], 0),
            ([_ok_row(), _failed_row()], 1),
            ([_ok_row(violations=1)], 1),
            ([_ok_row(truncated=True)], 1),
        ],
    )
    def test_red_on_failed_violating_or_truncated(
        self, rows, status, summarize_rows
    ):
        assert sweep_exit_status(summarize_rows(rows)) == status


class TestTable:
    def test_renders_ok_and_failed_rows(self):
        table = sweep_table([_ok_row("alpha", violations=1), _failed_row("beta")])
        lines = table.splitlines()
        assert lines[0].split(" | ")[0].strip() == "name"
        assert "alpha" in table and "beta" in table
        assert "failed" in table
        # Failed rows render "-" for violations (nothing was checked).
        assert lines[3].rstrip().endswith("-")

    def test_custom_columns(self):
        table = sweep_table([_ok_row()], columns=("name", "rounds"))
        assert table.splitlines()[0].startswith("name")
        assert "delivered" not in table
