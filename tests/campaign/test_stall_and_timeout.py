"""Liveness backstops at the campaign layer.

A sweep must never hang on one sick cell.  Two backstops guarantee it:
the *stall watchdog* (``stall_window=``, in-process: the runner detects
a no-progress window and fails the cell with a triaged wait-reason
histogram) and the *per-cell timeout* (``cell_timeout=``, process mode:
a worker that blows its wall-clock budget yields a failed row and the
sweep moves on).  Both produce ``status="failed"`` rows that are never
cached, so reruns retry the cell.

The planted stall is the retained PR 4 ``supersede-wait`` quirk under a
late-Omega rotation — a genuine liveness bug that would otherwise burn
the full round budget of every affected cell.
"""

from dataclasses import replace

import pytest

from repro.campaign.cache import CampaignCache
from repro.campaign.executor import execute_spec, run_campaign
from repro.campaign.grid import Campaign, case
from repro.faults.plan import FaultEvent, FaultPlan
from repro.workloads.runner import Send
from repro.workloads.topologies import disjoint_topology

OMEGA_ROTATION = FaultPlan(
    (FaultEvent(kind="omega_late", group="g1", until=24),)
)

SENDS = (Send(1, "g1", 0), Send(4, "g2", 0))


def stall_specs(max_rounds: int = 240) -> list:
    """One kernel cell carrying the planted supersede-wait stall."""
    (spec,) = Campaign(
        name="planted-stall",
        cases=(
            case("stall", disjoint_topology(2, group_size=3), sends=SENDS),
        ),
        backends=("kernel",),
        faults=(OMEGA_ROTATION,),
        max_rounds=max_rounds,
    ).specs()
    return [replace(spec, quirks=("supersede-wait",))]


class TestStallRows:
    def test_execute_spec_converts_the_stall_into_a_failed_row(self):
        (spec,) = stall_specs()
        row = execute_spec((7, spec, 100))
        assert row["status"] == "failed"
        assert row["error"] == "stall"
        assert row["index"] == 7
        # The triage payload names the wait reasons — the histogram is
        # what turns "it hung" into "it waits on superseded promises".
        assert sum(row["stall"]["wait_reasons"].values()) > 0
        assert row["stall"]["stalled_checks"] >= 100
        # Failed rows still self-describe for replay: hash + spec JSON.
        assert row["spec_hash"] == spec.spec_hash()
        assert row["spec"] == spec.to_json()
        assert row["triage"]["spec_hash"] == spec.spec_hash()

    def test_run_campaign_fails_the_cell_instead_of_hanging(self):
        report = run_campaign(stall_specs(), stall_window=100)
        assert report.summary["scenarios"] == 1
        assert report.summary["failed"] == 1
        (row,) = report.rows
        assert row["error"] == "stall"
        assert row["stall"]["at_time"] < 240

    def test_without_the_watchdog_the_cell_burns_its_budget(self):
        report = run_campaign(stall_specs())
        (row,) = report.rows
        # Same cell, no watchdog: a 240-round truncated burn, not a
        # descriptive failure.  This is the behavior the backstop buys
        # its way out of.
        assert row["status"] == "ok"
        assert row["rounds"] == 240
        assert row["truncated"] is True

    def test_stall_rows_are_never_cached(self, tmp_path):
        cache = CampaignCache(str(tmp_path / "cache"))
        specs = stall_specs()
        first = run_campaign(specs, cache=cache, stall_window=100)
        assert first.executed == 1 and first.cached == 0
        # The failed row was refused by the cache, so the rerun
        # re-executes the cell instead of replaying the failure.
        second = run_campaign(specs, cache=cache, stall_window=100)
        assert second.executed == 1 and second.cached == 0
        assert cache.get(specs[0]) is None


class TestCellTimeout:
    def test_timed_out_cell_yields_a_timeout_row(self):
        # The stall grinds ~25k rounds/sec, so a 150k-round budget is
        # ~6s of wall clock — far past the 1s cell budget, while the
        # sweep itself returns promptly with a failed row.
        specs = stall_specs(max_rounds=150_000)
        report = run_campaign(specs, workers=2, cell_timeout=1.0)
        assert report.summary["failed"] == 1
        (row,) = report.rows
        assert row["status"] == "failed"
        assert row["error"] == "timeout"
        assert row["timeout"] == 1.0
        assert row["spec_hash"] == specs[0].spec_hash()

    def test_one_worker_process_mode_still_enforces_the_budget(self):
        # One worker is still a pool: run in-process, the cell could not
        # be preempted and the reported mode would be a lie.  No result
        # can be ready a nanosecond after submission, so the short cell
        # times out without leaving a long-running worker behind.
        report = run_campaign(
            stall_specs(), mode="process", workers=1, cell_timeout=1e-9
        )
        assert (report.mode, report.workers) == ("process", 1)
        (row,) = report.rows
        assert row["status"] == "failed"
        assert row["error"] == "timeout"

    def test_cell_timeout_requires_process_mode(self):
        with pytest.raises(ValueError):
            run_campaign(stall_specs(), cell_timeout=1.0)

    def test_timeout_rows_are_never_cached(self, tmp_path):
        cache = CampaignCache(str(tmp_path / "cache"))
        row = {
            "name": "x",
            "status": "failed",
            "error": "timeout",
            "timeout": 1.0,
        }
        assert cache.put(stall_specs()[0], row) is False
