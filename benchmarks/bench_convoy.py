"""E4 — the convoy effect (§6.2; ref [1]).

"When contention occurs, a message may wait for a chain of messages to be
delivered first.  This chain can span outside of the destination group."

We use hub topologies: k groups all sharing the hub process p1, so every
pair of groups is a cyclic-family edge and the stabilization waits of
lines 28/32 are live between g1 and every spoke.  A probe to g1 must wait,
in each shared log, for the spoke messages racing ahead of it — work and
waiting that grow with the number of contending neighbour groups although
g1 itself always carries exactly one message.

Latency is measured in rounds at one action per process per round (the
finest interleaving).  Expected shape: the contended probe's latency grows
markedly faster with k than the idle control's (whose growth is just the
per-partner stabilization records).
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.campaign.executor import run_campaign
from repro.campaign.grid import Campaign, case
from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.metrics.summary import format_table
from repro.model.failures import failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok
from repro.workloads.runner import Send
from repro.workloads.topologies import hub_topology

ROWS = []
SCAN_ROWS = []
CAMPAIGN_ROWS = []


def teardown_module(module):
    if ROWS:  # empty when only a subset of the module ran
        print("\n\nE4 - convoy effect: probe latency vs contending spokes:")
        print(
            format_table(
                ("spoke groups", "contended latency", "idle latency", "gap"),
                ROWS,
            )
        )
        gaps = [row[3] for row in ROWS]
        # Shape: the contention-induced gap grows with the number of
        # neighbour groups the probe never addressed.
        assert gaps[-1] > gaps[0]
        assert all(gap > 0 for gap in gaps)
    if SCAN_ROWS:
        print("\nWake-index scheduling: processes scanned of those eligible:")
        print(
            format_table(
                ("spoke groups", "eligible", "scanned", "ratio"),
                SCAN_ROWS,
            )
        )
    if CAMPAIGN_ROWS:
        print("\nConvoy sweep via the campaign API: probe work vs spokes:")
        print(
            format_table(
                ("spoke groups", "contended actions", "idle actions", "gap"),
                CAMPAIGN_ROWS,
            )
        )


def run_convoy(k: int, contended: bool):
    """Drive the convoy workload; return (latency rounds, system)."""
    topo = hub_topology(k)
    procs = make_processes(len(topo.processes))
    system = MulticastSystem(topo, failure_free(pset(procs)), seed=31)
    amc = AtomicMulticast(system)
    if contended:
        for i in range(2, k + 1):
            group = topo.group(f"g{i}")
            amc.multicast(sorted(group.members)[-1], f"g{i}")
        system.tick(action_budget=1)
    probe = amc.multicast(procs[0], "g1")
    g1 = topo.group("g1")
    rounds = 0
    while (
        system.record.delivered_by(probe) != g1.members and rounds < 3000
    ):
        system.tick(action_budget=1)
        rounds += 1
    system.run()  # drain, then machine-check the whole run
    assert_run_ok(system.record)
    assert system.record.delivered_by(probe) == g1.members
    return rounds, system


def probe_latency(k: int, contended: bool) -> int:
    rounds, _ = run_convoy(k, contended)
    return rounds


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_probe_latency_under_contention(benchmark, k):
    contended = run_once(benchmark, probe_latency, k, True)
    idle = probe_latency(k, False)
    ROWS.append((k, contended, idle, contended - idle))
    assert contended > idle


def test_wake_index_scan_ratio(trace_export):
    """The wake index's headline win on the convoy workload.

    A scan-everything loop visits every eligible process every round
    (``scanned == eligible`` by construction — ``tests/core/
    test_scheduling.py`` holds that differential), so the run's own
    ``eligible / scanned`` is the ratio against it.
    """
    for k in (4, 6):
        _, event = run_convoy(k, True)
        summary = event.tracer.summary()
        SCAN_ROWS.append(
            (
                k,
                summary["eligible"],
                summary["scanned"],
                summary["scan_ratio"],
            )
        )
        trace_export(
            event,
            meta={"workload": "convoy", "k": k},
            suffix=f"_k{k}",
        )
    # ISSUE acceptance: >= 2x fewer scans on the convoy workload.
    assert SCAN_ROWS[-1][3] >= 2.0


def _convoy_case(k: int, contended: bool):
    """The convoy workload as a declarative send script.

    Spoke senders fire into g2..gk at round 0; the probe multicasts to
    g1 at round 1, racing the spokes through the logs they share with
    the hub process p1.
    """
    topo = hub_topology(k)
    sends = []
    if contended:
        for i in range(2, k + 1):
            group = topo.group(f"g{i}")
            sends.append(Send(sorted(group.members)[-1].index, f"g{i}", 0))
    sends.append(Send(1, "g1", 1))
    label = f"hub{k}" if contended else f"hub{k}-idle"
    return case(label, topo, sends=tuple(sends))


def test_convoy_campaign_sweep(benchmark):
    """The k-sweep of E4, ported onto the campaign API.

    Under full-parallel ticks the convoy shows up as *work*, not
    rounds: the actions the system executes before quiescence grow
    superlinearly with the number of contending spoke groups, while the
    idle control grows by a constant per extra group.  One campaign
    covers both arms of every k; the gap per k is the convoy.
    """
    spokes = (2, 3, 4, 5, 6)
    campaign = Campaign(
        name="convoy-sweep",
        cases=tuple(
            _convoy_case(k, contended)
            for k in spokes
            for contended in (True, False)
        ),
        seeds=(31,),
        max_rounds=3000,
    )

    report = run_once(benchmark, lambda: run_campaign(campaign, workers=1))
    summary = report.summary
    assert summary["failed"] == 0 and summary["truncated"] == 0
    assert summary["delivered"] == summary["scenarios"]
    assert sum(summary["violations"].values()) == 0

    actions = {
        row["name"].split(":", 1)[0]: row["trace"]["actions"]
        for row in report.rows
    }
    gaps = []
    for k in spokes:
        gap = actions[f"hub{k}"] - actions[f"hub{k}-idle"]
        CAMPAIGN_ROWS.append(
            (k, actions[f"hub{k}"], actions[f"hub{k}-idle"], gap)
        )
        gaps.append(gap)
    assert all(gap > 0 for gap in gaps)
    assert gaps == sorted(gaps) and gaps[-1] > gaps[0]
