"""Tests for group topologies, pinned to Figure 1 of the paper."""

import pytest

from repro.groups.families import intersection_adjacency
from repro.groups.topology import (
    Group,
    GroupTopology,
    paper_figure1_topology,
    topology_from_indices,
)
from repro.model.errors import TopologyError
from repro.model.processes import by_indices, make_processes


@pytest.fixture()
def fig1():
    return paper_figure1_topology()


class TestGroup:
    def test_groups_compare_by_membership(self):
        a = Group("a", by_indices(1, 2))
        b = Group("b", by_indices(1, 2))
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_group_rejected(self):
        with pytest.raises(TopologyError):
            Group("bad", [])

    def test_intersection_helpers(self):
        g = Group("g", by_indices(1, 2))
        h = Group("h", by_indices(2, 3))
        k = Group("k", by_indices(4))
        assert g.intersects(h)
        assert g.intersection(h) == by_indices(2)
        assert not g.intersects(k)


class TestTopologyConstruction:
    def test_group_outside_system_rejected(self):
        procs = make_processes(2)
        with pytest.raises(TopologyError):
            GroupTopology(procs, [Group("g", by_indices(1, 3))])

    def test_duplicate_names_rejected(self):
        procs = make_processes(3)
        with pytest.raises(TopologyError):
            GroupTopology(
                procs,
                [Group("g", by_indices(1)), Group("g", by_indices(2))],
            )

    def test_at_least_one_group_required(self):
        with pytest.raises(TopologyError):
            GroupTopology(make_processes(2), [])

    def test_unknown_group_lookup_raises(self):
        topo = topology_from_indices(2, {"g": [1, 2]})
        with pytest.raises(TopologyError):
            topo.group("missing")


class TestFigure1:
    """The worked example of §3: groups, G(p), F, F(g), F(p)."""

    def test_membership(self, fig1):
        assert fig1.group("g1").members == by_indices(1, 2)
        assert fig1.group("g2").members == by_indices(2, 3)
        assert fig1.group("g3").members == by_indices(1, 3, 4)
        assert fig1.group("g4").members == by_indices(1, 4, 5)

    def test_groups_of_process(self, fig1):
        p1 = make_processes(5)[0]
        names = {g.name for g in fig1.groups_of(p1)}
        assert names == {"g1", "g3", "g4"}

    def test_intersecting_pairs(self, fig1):
        pairs = {
            frozenset((g.name, h.name)) for g, h in fig1.intersecting_pairs()
        }
        assert pairs == {
            frozenset({"g1", "g2"}),
            frozenset({"g1", "g3"}),
            frozenset({"g1", "g4"}),
            frozenset({"g2", "g3"}),
            frozenset({"g3", "g4"}),
        }

    def test_cyclic_families_are_exactly_f_fprime_fsecond(self, fig1):
        names = {
            frozenset(g.name for g in fam) for fam in fig1.cyclic_families()
        }
        assert names == {
            frozenset({"g1", "g2", "g3"}),
            frozenset({"g1", "g3", "g4"}),
            frozenset({"g1", "g2", "g3", "g4"}),
        }

    def test_families_of_g2_matches_paper(self, fig1):
        g2 = fig1.group("g2")
        names = {
            frozenset(g.name for g in fam) for fam in fig1.families_of_group(g2)
        }
        assert names == {
            frozenset({"g1", "g2", "g3"}),
            frozenset({"g1", "g2", "g3", "g4"}),
        }

    def test_p1_belongs_to_all_cyclic_families(self, fig1):
        p1 = make_processes(5)[0]
        assert set(fig1.families_of_process(p1)) == set(fig1.cyclic_families())

    def test_p5_belongs_to_no_cyclic_family(self, fig1):
        p5 = make_processes(5)[4]
        assert fig1.families_of_process(p5) == ()

    def test_intersection_graph_of_full_family(self, fig1):
        graph = intersection_adjacency(fig1.groups)
        assert list(graph) == list(fig1.groups)
        g2 = fig1.group("g2")
        g4 = fig1.group("g4")
        assert g4 not in graph[g2]
        assert fig1.group("g1") in graph[g2]

    def test_cyclic_partners_of_g1_for_p1(self, fig1):
        p1 = make_processes(5)[0]
        partners = fig1.cyclic_partners(fig1.group("g1"), p1)
        assert {g.name for g in partners} == {"g2", "g3", "g4"}


class TestDisjointTopology:
    def test_disjoint_groups_have_no_cyclic_family(self):
        topo = topology_from_indices(
            6, {"a": [1, 2], "b": [3, 4], "c": [5, 6]}
        )
        assert topo.cyclic_families() == ()
        assert topo.intersecting_pairs() == ()

    def test_chain_topology_is_acyclic(self):
        # a - b - c in a line: intersecting but hamiltonian-free.
        topo = topology_from_indices(
            5, {"a": [1, 2], "b": [2, 3], "c": [3, 4]}
        )
        assert topo.cyclic_families() == ()
        assert len(topo.intersecting_pairs()) == 2
