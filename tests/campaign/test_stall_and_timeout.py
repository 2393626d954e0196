"""Liveness backstops at the campaign layer.

A sweep must never hang on one sick cell.  Two backstops guarantee it,
both inside the cell: the *stall watchdog* (``stall_window=``: the
runner detects a no-progress window and fails the cell with a triaged
wait-reason histogram) and the *per-cell timeout* (``cell_timeout=``, a
one-shot ``SIGALRM`` timer that :func:`execute_spec` arms around the
run, serial or on a pool: a cell that blows its wall-clock budget
yields a failed row and the sweep moves on).  Both produce
``status="failed"`` rows that are never cached, so reruns retry the
cell.  The other failure paths of a sweep are
``tests/campaign/test_failure_matrix.py``.

The planted stall is the ``supersede-wait`` patch
(:func:`tests.substrates._oracle.supersede_wait_everywhere`, on for the
whole module) under a late-Omega rotation — a genuine liveness bug that
would otherwise burn the full round budget of every affected cell.  A
patch is not part of the spec's address, so these cells use no cache
but the ``tmp_path`` ones only they write.
"""

import multiprocessing
import signal
import threading
import time

import pytest

from repro.campaign.cache import CampaignCache
from repro.campaign.executor import execute_spec, run_campaign
from repro.campaign.grid import Campaign, case
from repro.faults.plan import FaultEvent, FaultPlan
from repro.workloads.runner import Send
from repro.workloads.topologies import disjoint_topology
from tests.substrates._oracle import supersede_wait_everywhere

OMEGA_ROTATION = FaultPlan(
    (FaultEvent(kind="omega_late", group="g1", until=24),)
)

SENDS = (Send(1, "g1", 0), Send(4, "g2", 0))


@pytest.fixture(autouse=True)
def supersede_wait(monkeypatch):
    supersede_wait_everywhere(monkeypatch)


def stall_specs(max_rounds: int = 240) -> list:
    """One kernel cell that stalls under the supersede-wait patch."""
    return Campaign(
        name="planted-stall",
        cases=(
            case("stall", disjoint_topology(2, group_size=3), sends=SENDS),
        ),
        backends=("kernel",),
        faults=(OMEGA_ROTATION,),
        max_rounds=max_rounds,
    ).specs()


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
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patch reaches pool workers only by fork inheritance",
    )
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
        # The cell stopped where it ran: no worker is left grinding it,
        # so nothing keeps the process from exiting.
        assert multiprocessing.active_children() == []

    def test_the_same_cell_times_out_in_a_serial_sweep(self):
        report = run_campaign(stall_specs(max_rounds=150_000), cell_timeout=1.0)
        assert report.mode == "serial"
        (row,) = report.rows
        assert (row["error"], row["timeout"]) == ("timeout", 1.0)

    def test_an_in_process_sweep_off_the_main_thread_is_refused(self):
        # Only the main thread receives the alarm; a pool is fine.
        outcome = {}

        def sweep():
            try:
                run_campaign(stall_specs(), cell_timeout=1.0)
            except ValueError as exc:
                outcome["refused"] = str(exc)

        thread = threading.Thread(target=sweep)
        thread.start()
        thread.join()
        assert "main thread" in outcome["refused"]

    def test_timeout_rows_are_never_cached(self, tmp_path):
        cache = CampaignCache(str(tmp_path / "cache"))
        row = {
            "name": "x",
            "status": "failed",
            "error": "timeout",
            "timeout": 1.0,
        }
        assert cache.put(stall_specs()[0], row) is False


class TestAlarm:
    """The budget's timer leaves the process's own ``SIGALRM`` as it was."""

    def test_the_outer_handler_and_timer_are_put_back(self):
        def outer(signum, frame):  # pragma: no cover — never fires
            raise AssertionError("the outer alarm fired early")

        previous = signal.signal(signal.SIGALRM, outer)
        previous_timer = signal.setitimer(signal.ITIMER_REAL, 100.0)
        try:
            (spec,) = stall_specs()
            row = execute_spec((0, spec, None, 5.0))
            assert row["status"] == "ok"
            assert signal.getsignal(signal.SIGALRM) is outer
            left, _ = signal.getitimer(signal.ITIMER_REAL)
            assert 90.0 < left < 100.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, *previous_timer)
            signal.signal(signal.SIGALRM, previous)

    def test_an_alarm_at_the_edge_of_the_run_is_contained(self):
        # Budgets around the cell's own wall time put the alarm before,
        # inside and just after the end of the run: every row is either
        # the cell's or a timeout, and the process's own SIGALRM (a test
        # runner's timeout, or none) is as it was.
        handler = signal.getsignal(signal.SIGALRM)
        outer_left, _ = signal.getitimer(signal.ITIMER_REAL)
        (spec,) = stall_specs()
        started = time.perf_counter()
        expected = execute_spec((0, spec))
        wall = time.perf_counter() - started
        errors = set()
        for step in range(24):
            row = execute_spec((0, spec, None, wall * (0.5 + step / 16)))
            errors.add(row.get("error"))
            if row["status"] == "ok":
                assert row == expected
            left, _ = signal.getitimer(signal.ITIMER_REAL)
            assert left <= outer_left and (left > 0) == (outer_left > 0)
            assert signal.getsignal(signal.SIGALRM) is handler
        assert errors <= {None, "timeout"}
