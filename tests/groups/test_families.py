"""Tests for cyclic families, closed paths and faultiness (§3, §5.2)."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from repro.groups.families import (
    cpaths,
    family_fault_time,
    family_faulty_at,
    hamiltonian_cycles,
    is_cyclic_family,
    path_direction,
    path_edges,
)
from repro.groups.topology import paper_figure1_topology, topology_from_indices
from repro.model.errors import TopologyError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.workloads.topologies import hub_topology, ring_topology


@pytest.fixture()
def fig1():
    return paper_figure1_topology()


def family_by_names(topo, *names):
    return frozenset(topo.group(n) for n in names)


class TestHamiltonicity:
    def test_triangle_family_is_cyclic(self, fig1):
        fam = family_by_names(fig1, "g1", "g2", "g3")
        assert is_cyclic_family(fam)
        assert len(hamiltonian_cycles(fam)) == 1

    def test_pair_is_not_cyclic(self, fig1):
        fam = family_by_names(fig1, "g1", "g2")
        assert not is_cyclic_family(fam)
        assert hamiltonian_cycles(fam) == ()

    def test_non_hamiltonian_triple(self, fig1):
        # g2 and g4 do not intersect: {g2, g3, g4} is a path, not a cycle.
        fam = family_by_names(fig1, "g2", "g3", "g4")
        assert not is_cyclic_family(fam)

    def test_full_family_is_cyclic_with_single_cycle(self, fig1):
        fam = family_by_names(fig1, "g1", "g2", "g3", "g4")
        cycles = hamiltonian_cycles(fam)
        # The only hamiltonian cycle is g2-g1-g4-g3 (up to rotation).
        assert len(cycles) == 1

    def test_clique_of_four_has_three_cycles(self):
        # Four groups pairwise intersecting through a hub process.
        topo = topology_from_indices(
            5,
            {"a": [1, 2], "b": [1, 3], "c": [1, 4], "d": [1, 5]},
        )
        fam = frozenset(topo.groups)
        # K4 has 3 undirected hamiltonian cycles.
        assert len(hamiltonian_cycles(fam)) == 3

    @pytest.mark.parametrize(
        "topology, families, paths",
        [(paper_figure1_topology(), 3, 6 + 6 + 8)]
        + [(ring_topology(k), 1, 2 * k) for k in (4, 6, 8, 10)]
        # A hub's intersection graph is K_k: any >= 3 of its groups cycle.
        + [(hub_topology(k), sum(comb(k, s) for s in range(3, k + 1)), paths)
           for k, paths in ((3, 6), (4, 48), (5, 300))],
        ids=["figure-1", *(f"ring-{k}" for k in (4, 6, 8, 10)), "hub-3", "hub-4", "hub-5"],
    )
    def test_family_and_closed_path_counts(self, topology, families, paths):
        """EXPERIMENTS.md "Figure 1": |F| and the sum of |cpaths(f)|."""
        found = topology.cyclic_families()
        assert (len(found), sum(len(cpaths(f)) for f in found)) == (families, paths)


class TestClosedPaths:
    def test_cpaths_count_is_2k_per_cycle(self, fig1):
        fam = family_by_names(fig1, "g1", "g2", "g3")
        paths = cpaths(fam)
        assert len(paths) == 6  # 3 rotations x 2 directions
        for path in paths:
            assert path[0] == path[-1]
            assert len(path) == 4
            assert frozenset(path[:-1]) == fam

    def test_paper_example_paths_are_equivalent(self, fig1):
        g1, g2, g3 = (fig1.group(n) for n in ("g1", "g2", "g3"))
        pi = (g3, g1, g2, g3)
        pi_prime = (g1, g3, g2, g1)
        # ``π ≡ π'``: the two closed paths visit the same edges (§5.2).
        assert path_edges(pi) == path_edges(pi_prime)

    def test_equivalent_paths_have_opposite_or_same_direction(self, fig1):
        fam = family_by_names(fig1, "g1", "g2", "g3")
        directions = {}
        for path in cpaths(fam):
            directions.setdefault(path_edges(path), []).append(
                path_direction(path)
            )
        for dirs in directions.values():
            assert sorted(set(dirs)) == [-1, 1]

    def test_direction_is_stable_under_rotation(self, fig1):
        g1, g2, g3 = (fig1.group(n) for n in ("g1", "g2", "g3"))
        # Rotations of the same orientation share a direction.
        a = path_direction((g1, g2, g3, g1))
        b = path_direction((g2, g3, g1, g2))
        c = path_direction((g3, g1, g2, g3))
        assert a == b == c

    def test_direction_of_garbage_path_raises(self, fig1):
        g1, g2, g4 = (fig1.group(n) for n in ("g1", "g2", "g4"))
        with pytest.raises(TopologyError):
            path_direction((g1, g2, g4, g1))


class TestFaultiness:
    def test_family_faulty_when_its_only_cycle_breaks(self, fig1):
        procs = make_processes(5)
        fam = family_by_names(fig1, "g1", "g2", "g3")
        # g1 n g2 = {p2}: crashing p2 breaks the only cycle.
        pattern = crash_pattern(pset(procs), {procs[1]: 4})
        assert not family_faulty_at(fam, pattern, 3)
        assert family_faulty_at(fam, pattern, 4)
        assert family_fault_time(fam, pattern) == 4

    def test_a_recovering_member_leaves_its_family_live(self, fig1):
        """p2 = g1 ∩ g2 down over rounds 3–9, then rejoining: p2 is
        correct, so {g1, g2, g3} is never faulty (the retired body in
        ``tests/groups/_oracle.py`` called it faulty for the outage)."""
        procs = make_processes(5)
        crashed = crash_pattern(pset(procs), {procs[1]: 3})
        recovering = crashed.with_recovery(procs[1], 10)
        fam = family_by_names(fig1, "g1", "g2", "g3")
        assert not family_faulty_at(fam, recovering, 5)
        assert family_fault_time(fam, recovering) is None
        assert family_faulty_at(fam, crashed, 5)

    def test_paper_scenario_correct_p1_p4_p5(self, fig1):
        """With Correct = {p1, p4, p5}: f and f'' become faulty, f' stays."""
        procs = make_processes(5)
        pattern = crash_pattern(pset(procs), {procs[1]: 10, procs[2]: 10})
        f = family_by_names(fig1, "g1", "g2", "g3")
        f_prime = family_by_names(fig1, "g1", "g3", "g4")
        f_second = family_by_names(fig1, "g1", "g2", "g3", "g4")
        assert family_fault_time(f, pattern) is not None
        assert family_fault_time(f_second, pattern) is not None
        assert family_fault_time(f_prime, pattern) is None

    def test_failure_free_family_never_faulty(self, fig1):
        procs = make_processes(5)
        fam = family_by_names(fig1, "g1", "g3", "g4")
        pattern = failure_free(pset(procs))
        assert family_fault_time(fam, pattern) is None

    def test_faultiness_needs_every_cycle_broken(self):
        # Two edge-disjoint cycles through a clique: breaking one
        # intersection leaves another hamiltonian cycle alive.
        topo = topology_from_indices(
            7,
            {
                "a": [1, 2, 5],
                "b": [2, 3, 6],
                "c": [3, 4, 7],
                "d": [4, 1, 5, 6, 7],
            },
        )
        fam = frozenset(topo.groups)
        assert is_cyclic_family(fam)
        procs = make_processes(7)
        # Crash p2 (= a n b): the ring cycle a-b-c-d dies, but cycles
        # rerouted through shared processes may survive.
        pattern = crash_pattern(pset(procs), {procs[1]: 0})
        cycles = hamiltonian_cycles(fam)
        if len(cycles) > 1:
            assert not family_faulty_at(fam, pattern, 0)

    def test_faultiness_undefined_for_acyclic_family(self, fig1):
        fam = family_by_names(fig1, "g1", "g2")
        procs = make_processes(5)
        with pytest.raises(TopologyError):
            family_faulty_at(fam, failure_free(pset(procs)), 0)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=3, max_value=6))
    def test_ring_topologies_are_cyclic(self, k):
        """A ring of k groups g_i = {p_i, p_{i+1}} is always one cyclic
        family whose cycle is the ring itself."""
        groups = {
            f"g{i}": [i, (i % k) + 1] for i in range(1, k + 1)
        }
        topo = topology_from_indices(k, groups)
        fams = topo.cyclic_families()
        assert frozenset(topo.groups) in fams
        ring = frozenset(topo.groups)
        assert len(hamiltonian_cycles(ring)) == 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=3, max_value=5), st.integers(min_value=1, max_value=5))
    def test_breaking_any_ring_edge_kills_the_family(self, k, victim):
        victim = ((victim - 1) % k) + 1
        groups = {f"g{i}": [i, (i % k) + 1] for i in range(1, k + 1)}
        topo = topology_from_indices(k, groups)
        ring = frozenset(topo.groups)
        procs = make_processes(k)
        # g_{victim} n g_{victim+1} = {p_{victim+1 mod k}}; crashing any
        # single ring process kills exactly one edge, hence the family.
        pattern = crash_pattern(pset(procs), {procs[victim - 1]: 0})
        assert family_faulty_at(ring, pattern, 0)
