"""Tests for the §7 spanning-tree strongly genuine solution."""

import pytest

from repro.baselines.spanning_tree import SpanningTreeMulticast, spanning_tree_order
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import (
    check_integrity,
    check_minimality,
    check_ordering,
    check_termination,
)
from repro.workloads.topologies import chain_topology, disjoint_topology, ring_topology

PROCS5 = make_processes(5)
ALL5 = pset(PROCS5)


class TestSpanningTreeOrder:
    def test_ranks_are_a_permutation(self):
        topo = paper_figure1_topology()
        rank, parent = spanning_tree_order(topo)
        assert sorted(rank.values()) == list(range(len(topo.groups)))

    def test_parents_follow_intersections(self):
        topo = paper_figure1_topology()
        rank, parent = spanning_tree_order(topo)
        roots = [g for g, p in parent.items() if p is None]
        assert len(roots) == 1  # figure 1's graph is connected
        for child, par in parent.items():
            if par is not None:
                assert child.intersects(par)
                assert rank[par] < rank[child]

    def test_forest_per_connected_component(self):
        topo = disjoint_topology(3, group_size=2)
        rank, parent = spanning_tree_order(topo)
        roots = [g for g, p in parent.items() if p is None]
        assert len(roots) == 3


class TestSpanningTreeMulticast:
    def run_workload(self, topo, sends, seed=0):
        procs = sorted(topo.processes)
        protocol = SpanningTreeMulticast(topo, failure_free(topo.processes))
        for sender_index, group in sends:
            sender = procs[sender_index - 1]
            protocol.multicast(sender, group)
        protocol.run()
        return protocol

    def test_orders_on_cyclic_topology(self):
        """The failure-free case the paper highlights: F != empty is no
        obstacle for the spanning-tree discipline."""
        topo = ring_topology(4)
        protocol = self.run_workload(
            topo, [(1, "g1"), (2, "g2"), (3, "g3"), (4, "g4")]
        )
        assert check_integrity(protocol.record) == []
        assert check_ordering(protocol.record) == []
        assert check_termination(protocol.record) == []
        assert check_minimality(protocol.record) == []

    def test_orders_on_figure1(self):
        topo = paper_figure1_topology()
        protocol = self.run_workload(
            topo, [(1, "g1"), (2, "g2"), (1, "g3"), (5, "g4"), (2, "g1")]
        )
        assert check_ordering(protocol.record) == []
        assert check_termination(protocol.record) == []

    def test_disjoint_subtrees_progress_in_isolation(self):
        """Strong genuineness's point: traffic in one component never
        touches (or waits for) the others."""
        topo = disjoint_topology(2, group_size=2)
        procs = make_processes(4)
        protocol = SpanningTreeMulticast(topo, failure_free(pset(procs)))
        m = protocol.multicast(procs[0], "g1")
        protocol.run()
        assert protocol.record.delivered_by(m) == topo.group("g1").members
        assert protocol.record.steps_of(procs[2]) == 0
        assert protocol.record.steps_of(procs[3]) == 0

    def test_tree_order_constrains_stamping(self):
        """A message to a <_T-larger group waits for in-flight messages
        at smaller intersecting groups, never the other way round."""
        topo = chain_topology(3)
        procs = make_processes(4)
        protocol = SpanningTreeMulticast(topo, failure_free(pset(procs)))
        rank, _ = spanning_tree_order(topo)
        first = min(topo.groups, key=lambda g: rank[g])
        last = max(topo.groups, key=lambda g: rank[g])
        m_last = protocol.multicast(sorted(last.members)[0], last.name)
        m_first = protocol.multicast(sorted(first.members)[0], first.name)
        protocol.tick()
        protocol.run()
        assert check_ordering(protocol.record) == []
        assert check_termination(protocol.record) == []
