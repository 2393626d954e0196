"""Tests for Algorithm 1 on the engine (group-sequential interface)."""

import pytest

from repro.core import DELIVER, MulticastSystem, Phase
from repro.groups import paper_figure1_topology
from repro.model import (
    SimulationError,
    by_indices,
    crash_pattern,
    failure_free,
    make_processes,
    pset,
)
from repro.props import assert_run_ok, check_minimality
from repro.workloads import chain_topology, disjoint_topology, ring_topology

PROCS = make_processes(5)
ALL = pset(PROCS)
P1, P2, P3, P4, P5 = PROCS


@pytest.fixture()
def fig1_system():
    return MulticastSystem(paper_figure1_topology(), failure_free(ALL), seed=11)


class TestBasicDelivery:
    def test_single_message_reaches_whole_group(self, fig1_system):
        m = fig1_system.multicast(P1, "g3")
        fig1_system.run()
        assert fig1_system.record.delivered_by(m) == by_indices(1, 3, 4)
        assert_run_ok(fig1_system.record)

    def test_delivery_is_exactly_once(self, fig1_system):
        m = fig1_system.multicast(P1, "g1")
        fig1_system.run()
        extra = fig1_system.run(max_rounds=20)
        for p in (P1, P2):
            assert fig1_system.record.delivery_count(p, m) == 1

    def test_sender_must_belong_to_group(self, fig1_system):
        with pytest.raises(SimulationError):
            fig1_system.multicast(P5, "g1")

    def test_phases_progress_to_deliver(self, fig1_system):
        m = fig1_system.multicast(P2, "g2")
        fig1_system.run()
        proc = fig1_system.processes[P2]
        assert proc.phase_of(m) == DELIVER

    def test_crashed_process_cannot_multicast(self):
        pattern = crash_pattern(ALL, {P1: 0})
        system = MulticastSystem(paper_figure1_topology(), pattern)
        system.tick()
        with pytest.raises(SimulationError):
            system.multicast(P1, "g1")


class TestGenuineness:
    def test_uninvolved_process_takes_no_steps(self, fig1_system):
        fig1_system.multicast(P1, "g1")  # dst = {p1, p2}
        fig1_system.run()
        assert fig1_system.record.steps_of(P5) == 0
        assert fig1_system.record.steps_of(P4) == 0
        assert check_minimality(fig1_system.record) == []

    def test_disjoint_groups_stay_independent(self):
        topo = disjoint_topology(3, group_size=2)
        procs = make_processes(6)
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=3)
        system.multicast(procs[0], "g1")
        system.run()
        for idle in procs[2:]:
            assert system.record.steps_of(idle) == 0

    def test_intersection_member_may_take_steps_for_neighbor_group(self):
        # p1 is in g1 n g3; a message to g3 makes p1 work, legitimately.
        system = MulticastSystem(paper_figure1_topology(), failure_free(ALL))
        system.multicast(P3, "g3")
        system.run()
        assert system.record.steps_of(P1) > 0
        assert check_minimality(system.record) == []


class TestCrashTolerance:
    def test_intersection_crash_does_not_block_termination(self):
        """Crashing p2 = g1 n g2 kills the cyclic families through that
        edge; gamma unblocks the waiting processes."""
        pattern = crash_pattern(ALL, {P2: 1})
        system = MulticastSystem(paper_figure1_topology(), pattern, seed=5)
        m = system.multicast(P1, "g1")
        system.run()
        assert system.everyone_delivered(m)
        assert_run_ok(system.record)

    def test_sender_crash_after_multicast(self):
        pattern = crash_pattern(ALL, {P1: 1})
        system = MulticastSystem(paper_figure1_topology(), pattern, seed=6)
        m = system.multicast(P1, "g1")  # at time 0, before the crash
        system.run()
        # p2 is the only correct member of g1.
        assert P2 in system.record.delivered_by(m)
        assert_run_ok(system.record)

    def test_whole_group_crash_is_vacuous(self):
        pattern = crash_pattern(ALL, {P1: 2, P2: 2})
        system = MulticastSystem(paper_figure1_topology(), pattern, seed=7)
        system.multicast(P1, "g1")
        system.run()
        assert_run_ok(system.record)

    def test_gamma_lag_delays_but_does_not_block(self):
        pattern = crash_pattern(ALL, {P2: 1})
        eager = MulticastSystem(paper_figure1_topology(), pattern, seed=8)
        lagged = MulticastSystem(
            paper_figure1_topology(), pattern, gamma_lag=25, seed=8
        )
        m1 = eager.multicast(P1, "g1")
        m2 = lagged.multicast(P1, "g1")
        eager.run()
        lagged.run()
        assert eager.everyone_delivered(m1)
        assert lagged.everyone_delivered(m2)
        assert lagged.time >= eager.time


class TestTopologies:
    def test_ring_topology_delivers_under_crash(self):
        topo = ring_topology(4)
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[1]: 2})
        system = MulticastSystem(topo, pattern, seed=4)
        m = system.multicast(procs[0], "g1")
        system.run()
        assert system.everyone_delivered(m)
        assert_run_ok(system.record)

    def test_chain_topology_needs_no_gamma(self):
        topo = chain_topology(4)
        procs = make_processes(5)
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=2)
        msgs = [
            system.multicast(procs[i], f"g{i + 1}") for i in range(4)
        ]
        system.run()
        for m in msgs:
            assert system.everyone_delivered(m)
        assert_run_ok(system.record)

    def test_group_sequential_stream_same_group(self):
        """Group-sequential discipline: the sender waits for its previous
        message before sending the next one to the same group."""
        system = MulticastSystem(paper_figure1_topology(), failure_free(ALL))
        first = system.multicast(P1, "g1", payload=1)
        system.run()
        second = system.multicast(P1, "g1", payload=2)
        system.run()
        assert system.delivered_at(P2) == (first, second)
        assert_run_ok(system.record)


class TestConsensusUsage:
    def test_consensus_objects_keyed_per_message(self, fig1_system):
        fig1_system.multicast(P1, "g1")
        fig1_system.multicast(P3, "g3")
        fig1_system.run()
        # Each message committed through its own consensus instance.
        assert fig1_system.space.consensus_objects_used() == 2

    def test_acyclic_topology_still_uses_consensus_for_commit(self):
        # F(p) empty => family key is empty; a consensus object still
        # hosts the bump agreement within the group.
        topo = chain_topology(3)
        procs = make_processes(4)
        system = MulticastSystem(topo, failure_free(pset(procs)))
        system.multicast(procs[1], "g2")
        system.run()
        assert system.space.consensus_objects_used() == 1


class TestScanList:
    def test_scan_list_is_the_sorted_known_minus_the_retired(self, monkeypatch):
        """``try_actions`` walks only live ids: after every scan of a
        seeded Figure 1 run (budgeted scans included, whose early returns
        must filter too) the scan list is ``sorted(known)`` without
        ``_done`` — same order among live ids as scanning everything."""
        from repro.core.algorithm1 import Algorithm1Process
        from repro.workloads import random_sends

        try_actions = Algorithm1Process.try_actions
        scans = retired = 0

        def checked(proc, t, budget=None):
            nonlocal scans, retired
            fired = try_actions(proc, t, budget=budget)
            assert proc._scan_order == [
                mid for mid in sorted(proc.known) if mid not in proc._done
            ]
            scans += 1
            retired = max(retired, len(proc._done))
            return fired

        monkeypatch.setattr(Algorithm1Process, "try_actions", checked)
        topology = paper_figure1_topology()
        for budget in (None, 1):
            system = MulticastSystem(topology, failure_free(ALL), seed=11)
            for send in random_sends(topology, 24, seed=11):
                system.multicast(PROCS[send.sender - 1], send.group)
                system.tick(action_budget=budget)
            for _ in range(400):
                system.tick(action_budget=budget)
            assert_run_ok(system.record)
        assert scans > 100 and retired > 5
