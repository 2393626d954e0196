"""Safety under the finest interleaving: one action per process per round.

The coarse scan lets a process fire its whole pipeline atomically; the
budgeted scan interleaves single actions of different processes, which is
a strictly more adversarial schedule.  All §2.2 properties must still
hold, and the outcomes must match the coarse runs.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import AtomicMulticast, MulticastSystem
from repro.groups import paper_figure1_topology
from repro.model import crash_pattern, failure_free, make_processes, pset
from repro.props import assert_run_ok
from repro.workloads import hub_topology, random_sends, ring_topology

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def drive_fine(system, amc, max_rounds=2500):
    rounds = 0
    idle = 0
    while rounds < max_rounds and idle < 3:
        fired = system.tick(action_budget=1)
        rounds += 1
        if fired == 0 and system.time >= system.settle_horizon():
            idle += 1
        else:
            idle = 0
    return rounds


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=3, max_value=5),
)
def test_ring_safety_under_fine_interleaving(seed, k):
    topo = ring_topology(k)
    procs = make_processes(k)
    system = MulticastSystem(topo, failure_free(pset(procs)), seed=seed)
    amc = AtomicMulticast(system)
    for send in random_sends(topo, 5, seed=seed):
        sender = next(p for p in procs if p.index == send.sender)
        amc.multicast(sender, send.group)
    drive_fine(system, amc)
    assert_run_ok(system.record)


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    victim=st.integers(min_value=0, max_value=4),
)
def test_hub_safety_with_crash_under_fine_interleaving(seed, victim):
    topo = hub_topology(3)
    procs = make_processes(len(topo.processes))
    pattern = crash_pattern(
        pset(procs), {procs[victim % len(procs)]: 6}
    )
    system = MulticastSystem(topo, pattern, seed=seed)
    amc = AtomicMulticast(system)
    for send in random_sends(topo, 4, seed=seed):
        sender = next(p for p in procs if p.index == send.sender)
        amc.multicast(sender, send.group)
    drive_fine(system, amc)
    assert_run_ok(system.record)


def test_fine_and_coarse_agree_on_delivery_sets():
    topo = ring_topology(4)
    procs = make_processes(4)

    def run(fine):
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=77)
        amc = AtomicMulticast(system)
        sent = [
            amc.multicast(procs[0], "g1"),
            amc.multicast(procs[1], "g2"),
            amc.multicast(procs[2], "g3"),
        ]
        if fine:
            drive_fine(system, amc)
        else:
            amc.run()
        return {
            m.mid: system.record.delivered_by(m) for m in sent
        }

    assert run(fine=True) == run(fine=False)


@pytest.mark.parametrize("budget", [0, 1])
def test_deferred_line7_appends_count_against_the_budget(budget):
    """Two multicasts deferred on their quorums become appendable in the
    same scan: a budgeted scan fires at most ``budget`` of them (the
    deferred loop used to ignore the budget and fire both)."""
    topo = paper_figure1_topology()
    p1 = min(topo.processes)
    system = MulticastSystem(topo, failure_free(topo.processes), seed=0)
    system.tick(participation=frozenset({p1}))  # alone, p1 is no quorum
    deferred = {system.multicast(p1, "g1").mid, system.multicast(p1, "g3").mid}
    process = system.processes[p1]
    assert process._to_multicast == deferred

    scans = []
    scan = process.try_actions

    def recording_scan(t, budget=None):
        scans.append(scan(t, budget=budget))
        return scans[-1]

    process.try_actions = recording_scan
    system.tick(action_budget=budget)
    assert scans == [budget]
    assert len(process._to_multicast) == 2 - budget
