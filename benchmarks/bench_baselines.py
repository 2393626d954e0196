"""Comparators head-to-head: the Table 1 context rows (§2.3, §7, [36]).

Same workload on the Figure 1 topology across the four architectures:

* Algorithm 1 + mu (this paper): genuine, tolerates any failures;
* Skeen [5, 22]: genuine, failure-free only — one crash blocks;
* Partitioned [32, 17, 21, ...]: genuine while every partition retains a
  live member — a whole-partition failure blocks;
* Broadcast-based (non-genuine): tolerates failures, fails Minimality.

The printed matrix is the qualitative content of the paper's Table 1
surroundings: what each architecture trades away.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.baselines.broadcast import BroadcastMulticast
from repro.baselines.partitioned import PartitionedMulticast
from repro.baselines.skeen import SkeenMulticast
from repro.groups.topology import topology_from_indices
from repro.metrics.summary import format_table
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset
from repro.props.checkers import check_minimality, check_ordering, check_termination
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec

#: A topology every baseline can host: two groups sharing a partition.
TOPO = topology_from_indices(5, {"g": [1, 2, 3], "h": [2, 3, 4]})
PROCS = make_processes(5)
ALL = pset(PROCS)
PARTS = [by_indices(1), by_indices(2, 3), by_indices(4), by_indices(5)]
SENDS = [Send(1, "g", 0), Send(4, "h", 0), Send(2, "g", 1)]

ROWS = []


def teardown_module(module):
    print("\n\nBaseline matrix (workload: 3 msgs on g={p1,p2,p3}, h={p2,p3,p4}):")
    print(
        format_table(
            ("protocol", "failure-free", "1 crash in g∩h", "g∩h wiped out",
             "genuine"),
            ROWS,
        )
    )


def crash_one():
    return crash_pattern(ALL, {PROCS[1]: 1})


def crash_intersection():
    return crash_pattern(ALL, {PROCS[1]: 1, PROCS[2]: 1})


def _sends_into(protocol, pattern=None):
    pattern = pattern or failure_free(ALL)
    for send in SENDS:
        sender = PROCS[send.sender - 1]
        if pattern.is_alive(sender, protocol.time):
            protocol.multicast(sender, send.group)
    protocol.run()
    return protocol


def test_algorithm1_row(benchmark):
    specs = [
        ScenarioSpec.capture(TOPO, failure_free(ALL), SENDS, seed=1),
        ScenarioSpec.capture(TOPO, crash_one(), SENDS, seed=2),
        ScenarioSpec.capture(TOPO, crash_intersection(), SENDS, seed=3),
    ]

    def scenario():
        return tuple(run_scenario(spec) for spec in specs)

    ok_free, ok_one, ok_wipe = run_once(benchmark, scenario)
    for result in (ok_free, ok_one, ok_wipe):
        assert check_termination(result.record) == []
        assert check_ordering(result.record) == []
        assert check_minimality(result.record) == []
    ROWS.append(("Algorithm 1 + mu", "ok", "ok", "ok", "yes"))


def test_skeen_row(benchmark):
    def scenario():
        free = _sends_into(SkeenMulticast(TOPO, failure_free(ALL)))
        crashed = _sends_into(
            SkeenMulticast(TOPO, crash_one()), crash_one()
        )
        return free, crashed

    free, crashed = run_once(benchmark, scenario)
    assert check_termination(free.record) == []
    assert check_minimality(free.record) == []
    assert crashed.blocked_messages()  # a single crash blocks Skeen
    ROWS.append(("Skeen [5,22]", "ok", "BLOCKS", "BLOCKS", "yes"))


def test_partitioned_row(benchmark):
    def scenario():
        free = _sends_into(
            PartitionedMulticast(TOPO, failure_free(ALL), PARTS)
        )
        one = _sends_into(
            PartitionedMulticast(TOPO, crash_one(), PARTS), crash_one()
        )
        wiped = _sends_into(
            PartitionedMulticast(TOPO, crash_intersection(), PARTS),
            crash_intersection(),
        )
        return free, one, wiped

    free, one, wiped = run_once(benchmark, scenario)
    assert check_termination(free.record) == []
    assert check_minimality(free.record) == []
    # One member of the {p2,p3} partition may die...
    assert not one.blocked_messages()
    # ...but the whole partition may not (the §7 assumption).
    assert wiped.blocked_messages()
    ROWS.append(("Partitioned [32,17,...]", "ok", "ok", "BLOCKS", "yes"))


def test_broadcast_row(benchmark):
    def scenario():
        free = _sends_into(BroadcastMulticast(TOPO, failure_free(ALL)))
        wiped = _sends_into(
            BroadcastMulticast(TOPO, crash_intersection()),
            crash_intersection(),
        )
        return free, wiped

    free, wiped = run_once(benchmark, scenario)
    assert check_termination(free.record) == []
    assert check_termination(wiped.record) == []
    assert check_minimality(free.record) != []  # p5 works for nothing
    ROWS.append(("Broadcast-based", "ok", "ok", "ok", "NO"))
