"""Tests for the vanilla interface (Proposition 1 reduction)."""

import pytest

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.groups.topology import paper_figure1_topology
from repro.model.errors import SimulationError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok

PROCS = make_processes(5)
ALL = pset(PROCS)
P1, P2, P3, P4, P5 = PROCS


def fresh(pattern=None, seed=0):
    system = MulticastSystem(
        paper_figure1_topology(), pattern or failure_free(ALL), seed=seed
    )
    return system, AtomicMulticast(system)


class TestVanillaInterface:
    def test_concurrent_multicasts_to_same_group_are_serialized(self):
        system, amc = fresh()
        a = amc.multicast(P1, "g1", "a")
        b = amc.multicast(P2, "g1", "b")  # concurrently, no waiting
        amc.run()
        assert system.delivered_at(P1) == system.delivered_at(P2)
        assert set(system.delivered_at(P1)) == {a, b}
        assert_run_ok(system.record)

    def test_sender_outside_group_rejected(self):
        _, amc = fresh()
        with pytest.raises(SimulationError):
            amc.multicast(P5, "g1")

    def test_helping_delivers_for_crashed_sender(self):
        """The sender crashes right after enqueueing into L_g: the other
        member pushes the message through Algorithm 1."""
        pattern = crash_pattern(ALL, {P1: 1})
        system, amc = fresh(pattern, seed=3)
        m = amc.multicast(P1, "g1")
        amc.run()
        assert P2 in system.record.delivered_by(m)
        assert_run_ok(system.record)

    def test_burst_across_groups(self):
        system, amc = fresh(seed=9)
        messages = [
            amc.multicast(P1, "g1"),
            amc.multicast(P2, "g2"),
            amc.multicast(P3, "g3"),
            amc.multicast(P4, "g4"),
            amc.multicast(P2, "g1"),
            amc.multicast(P3, "g2"),
        ]
        amc.run()
        for m in messages:
            assert system.everyone_delivered(m)
        assert_run_ok(system.record)

    def test_pipelined_multicasts_from_one_sender(self):
        """A single sender floods one group without waiting — the
        reduction restores the group-sequential discipline internally."""
        system, amc = fresh(seed=1)
        sent = [amc.multicast(P1, "g1", i) for i in range(5)]
        amc.run()
        assert list(system.delivered_at(P2)) == sent
        assert_run_ok(system.record)

    def test_total_order_inside_group_is_unique(self):
        system, amc = fresh(seed=4)
        for i in range(4):
            sender = (P1, P2)[i % 2]
            amc.multicast(sender, "g1", i)
        amc.run()
        assert system.delivered_at(P1) == system.delivered_at(P2)

    def test_run_record_counts_one_multicast_event_per_message(self):
        system, amc = fresh()
        amc.multicast(P1, "g1")
        amc.run()
        assert len(system.record.multicasts) == 1

    def test_reduction_serializes_concurrent_load(self):
        """EXPERIMENTS.md "E9": n multicasts to g3, all at once or one by one."""

        def rounds(n, reduction):
            system, amc = fresh(seed=41)
            issue = amc.multicast if reduction else system.multicast
            total = 0
            for i in range(n):
                issue((P1, P3, P4)[i % 3], "g3", i)
                if not reduction:
                    total += system.run(max_rounds=100)
            if reduction:
                total = amc.run(max_rounds=800)
            assert_run_ok(system.record)
            assert len(system.record.local_order(P1)) == n
            return total

        loads = (1, 2, 4, 8)
        assert [rounds(n, reduction=True) for n in loads] == [4, 6, 12, 20]
        assert [rounds(n, reduction=False) for n in loads] == [4, 9, 19, 37]
