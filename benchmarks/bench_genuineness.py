"""E3 — the genuineness scaling claim (§1, §2.3; refs [33, 37]).

"With [the broadcast] approach, every process takes computational steps
to deliver every message ... as a consequence, the protocol does not
scale, even if the workload is embarrassingly parallel."

We run k disjoint groups with traffic only in group g1 and measure the
steps taken by a process of the *last* group:

* genuine Algorithm 1: exactly zero, independent of k and of the load;
* broadcast baseline: grows linearly with the total load.

Expected shape: a flat zero line vs a linearly growing one.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.baselines.broadcast import BroadcastMulticast
from repro.core.engine import MulticastSystem
from repro.metrics.summary import format_table
from repro.model.failures import failure_free
from repro.model.processes import make_processes, pset
from repro.workloads.topologies import disjoint_topology

LOAD = 8  # messages, all to g1
ROWS = []


def teardown_module(module):
    print("\n\nE3 - steps at an idle process (disjoint groups, load on g1):")
    print(
        format_table(
            ("k groups", "genuine steps", "broadcast steps"), ROWS
        )
    )
    # Shape assertions across the sweep: flat vs growing.
    genuine = [row[1] for row in ROWS]
    broadcast = [row[2] for row in ROWS]
    assert all(v == 0 for v in genuine)
    assert broadcast == sorted(broadcast) and broadcast[0] > 0


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_idle_process_work(benchmark, k):
    topo = disjoint_topology(k, group_size=2)
    procs = make_processes(2 * k)
    idle = procs[-1]  # a member of the last group, which gets no traffic

    def scenario():
        pattern = failure_free(pset(procs))
        system = MulticastSystem(topo, pattern, seed=k)
        for i in range(LOAD):
            system.multicast(procs[i % 2], "g1")
            system.run(max_rounds=50)
        genuine_steps = system.record.steps_of(idle)

        baseline = BroadcastMulticast(topo, pattern)
        for i in range(LOAD):
            baseline.multicast(procs[i % 2], "g1")
        baseline.run()
        broadcast_steps = baseline.record.steps_of(idle)
        return genuine_steps, broadcast_steps

    genuine_steps, broadcast_steps = run_once(benchmark, scenario)
    assert genuine_steps == 0
    assert broadcast_steps == LOAD
    ROWS.append((k, genuine_steps, broadcast_steps))


def test_total_system_work_comparison(benchmark):
    """Total steps: genuine work concentrates in the loaded group while
    the baseline charges the whole system per message."""
    k = 6
    topo = disjoint_topology(k, group_size=2)
    procs = make_processes(2 * k)

    def scenario():
        pattern = failure_free(pset(procs))
        system = MulticastSystem(topo, pattern, seed=1)
        for i in range(LOAD):
            system.multicast(procs[i % 2], "g1")
            system.run(max_rounds=50)
        outside = sum(
            system.record.steps_of(p) for p in procs[2:]
        )
        baseline = BroadcastMulticast(topo, pattern)
        for i in range(LOAD):
            baseline.multicast(procs[i % 2], "g1")
        baseline.run()
        baseline_outside = sum(
            baseline.record.steps_of(p) for p in procs[2:]
        )
        return outside, baseline_outside

    outside, baseline_outside = run_once(benchmark, scenario)
    assert outside == 0
    assert baseline_outside == LOAD * (2 * k - 2)
