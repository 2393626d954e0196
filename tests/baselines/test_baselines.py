"""Tests for the comparator protocols (Table 1 rows and §2.3/§7 claims)."""

import pytest

from repro.baselines.broadcast import BroadcastMulticast
from repro.baselines.partitioned import PartitionedMulticast
from repro.baselines.skeen import SkeenMulticast
from repro.groups.topology import paper_figure1_topology
from repro.model.errors import SimulationError, TopologyError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset
from repro.props.checkers import (
    check_integrity,
    check_minimality,
    check_ordering,
    check_termination,
)
from repro.workloads.topologies import disjoint_topology

PROCS = make_processes(5)
ALL = pset(PROCS)


class TestBroadcastBaseline:
    def test_orders_and_terminates(self):
        b = BroadcastMulticast(paper_figure1_topology(), failure_free(ALL))
        b.multicast(PROCS[0], "g1")
        b.multicast(PROCS[2], "g2")
        b.run()
        assert check_integrity(b.record) == []
        assert check_ordering(b.record) == []
        assert check_termination(b.record) == []

    def test_is_not_genuine(self):
        """The defining flaw: uninvolved processes take steps."""
        b = BroadcastMulticast(paper_figure1_topology(), failure_free(ALL))
        b.multicast(PROCS[0], "g1")  # dst = {p1, p2}
        b.run()
        violations = check_minimality(b.record)
        assert any("p5" in v for v in violations)

    def test_per_process_work_scales_with_total_load(self):
        """Steps at an idle process grow linearly with global traffic."""
        topo = disjoint_topology(3, group_size=2)
        procs = make_processes(6)
        b = BroadcastMulticast(topo, failure_free(pset(procs)))
        for _ in range(10):
            b.multicast(procs[0], "g1")
        b.run()
        # p5/p6 are in g3, which got no traffic, yet stepped 10 times.
        assert b.record.steps_of(procs[4]) == 10

    def test_crashed_sender_rejected(self):
        pattern = crash_pattern(ALL, {PROCS[0]: 0})
        b = BroadcastMulticast(paper_figure1_topology(), pattern)
        b.tick()
        with pytest.raises(SimulationError):
            b.multicast(PROCS[0], "g1")


class TestSkeenBaseline:
    def test_failure_free_correctness(self):
        s = SkeenMulticast(paper_figure1_topology(), failure_free(ALL))
        for sender, group in ((PROCS[0], "g1"), (PROCS[1], "g2"), (PROCS[0], "g3")):
            s.multicast(sender, group)
        s.run()
        assert check_integrity(s.record) == []
        assert check_ordering(s.record) == []
        assert check_termination(s.record) == []
        assert check_minimality(s.record) == []

    def test_blocks_when_a_destination_member_crashes(self):
        """The gap that motivates the paper: no fault tolerance."""
        pattern = crash_pattern(ALL, {PROCS[1]: 1})
        s = SkeenMulticast(paper_figure1_topology(), pattern)
        m = s.multicast(PROCS[0], "g1")
        s.run()
        assert m in s.blocked_messages()

    def test_same_group_messages_delivered_in_one_order(self):
        s = SkeenMulticast(paper_figure1_topology(), failure_free(ALL))
        a = s.multicast(PROCS[0], "g1")
        b = s.multicast(PROCS[1], "g1")
        s.run()
        assert s.delivered_at(PROCS[0]) == s.delivered_at(PROCS[1])
        assert set(s.delivered_at(PROCS[0])) == {a, b}


class TestPartitionedBaseline:
    def topo(self):
        return disjoint_topology(2, group_size=2), make_processes(4)

    def test_partitions_must_be_disjoint(self):
        topo, procs = self.topo()
        with pytest.raises(TopologyError):
            PartitionedMulticast(
                topo,
                failure_free(pset(procs)),
                [by_indices(1, 2), by_indices(2, 3)],
            )

    def test_groups_must_be_unions_of_partitions(self):
        topo, procs = self.topo()
        with pytest.raises(TopologyError):
            PartitionedMulticast(
                topo,
                failure_free(pset(procs)),
                [by_indices(1), by_indices(3, 4)],
            )

    def test_failure_free_correctness(self):
        topo, procs = self.topo()
        pm = PartitionedMulticast(
            topo,
            failure_free(pset(procs)),
            [by_indices(1, 2), by_indices(3, 4)],
        )
        pm.multicast(procs[0], "g1")
        pm.multicast(procs[2], "g2")
        pm.run()
        assert check_ordering(pm.record) == []
        assert check_termination(pm.record) == []
        assert check_minimality(pm.record) == []

    def test_partial_partition_crash_is_tolerated(self):
        """The 'logically correct entity' survives member crashes."""
        topo, procs = self.topo()
        pattern = crash_pattern(pset(procs), {procs[0]: 2})
        pm = PartitionedMulticast(
            topo, pattern, [by_indices(1, 2), by_indices(3, 4)]
        )
        m = pm.multicast(procs[1], "g1")
        pm.run()
        assert procs[1] in pm.record.delivered_by(m)

    def test_whole_partition_crash_blocks(self):
        """...but a whole-partition failure blocks, unlike Algorithm 1."""
        topo, procs = self.topo()
        pattern = crash_pattern(pset(procs), {procs[0]: 1, procs[1]: 1})
        pm = PartitionedMulticast(
            topo, pattern, [by_indices(1, 2), by_indices(3, 4)]
        )
        # A g2 message is fine; a g1 message issued pre-crash blocks.
        m1 = pm.multicast(procs[0], "g1")
        pm.run()
        assert m1 in pm.blocked_messages()

    def test_overlapping_groups_via_shared_partition(self):
        """Intersecting groups work when the intersection is a partition
        — the decomposition the prior protocols assume (§7)."""
        from repro.groups.topology import topology_from_indices

        topo = topology_from_indices(
            4, {"g": [1, 2, 3], "h": [2, 3, 4]}
        )
        procs = make_processes(4)
        pm = PartitionedMulticast(
            topo,
            failure_free(pset(procs)),
            [by_indices(1), by_indices(2, 3), by_indices(4)],
        )
        mg = pm.multicast(procs[0], "g")
        mh = pm.multicast(procs[3], "h")
        pm.run()
        assert check_ordering(pm.record) == []
        assert check_termination(pm.record) == []
