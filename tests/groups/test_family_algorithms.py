"""The certificate/output-sensitive cycle algorithms vs brute force.

``has_hamiltonian_cycle`` and ``cycle_vertex_sets`` replaced the
exponential subset sweep so 200-group topologies construct; this module
pins their correctness against tiny, obviously-correct references —
permutation search for hamiltonicity, an induced-subgraph sweep for
cycle vertex sets — across every labelled graph shape up to 6 vertices
that a seeded sample can reach, plus the structured shapes (cycles,
paths, cliques, stars) whose certificates short-circuit the search.

The graph functions are vertex-generic (any sortable hashable vertex
works); plain ints keep the references readable.

The module's one cycle walk replaced three hand-written searches, kept
in ``tests/groups/_oracle.py``: ``TestAgainstRetiredWalks`` holds all
three callers to them in output order and in the exact inspection at
which a budget trips, and ``TestTwoFamilyPaths`` holds
``cyclic_families``' subset sweep and cycle walk to the same tuple.
"""

from itertools import combinations, permutations
import random

import pytest

import repro.groups.topology as topology_module
from repro.groups.families import (
    cycle_vertex_sets,
    has_hamiltonian_cycle,
    hamiltonian_cycles,
    intersection_adjacency,
)
from repro.groups.topology import Group, paper_figure1_topology
from repro.model.errors import TopologyError
from repro.model.processes import make_processes
from repro.workloads.topologies import (
    chain_topology,
    disjoint_topology,
    hub_topology,
    random_topology,
    ring_topology,
)
from tests.groups import _oracle


def _adjacency(n, edges):
    adjacency = {v: set() for v in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def _brute_hamiltonian(adjacency):
    vertices = sorted(adjacency)
    if len(vertices) < 3:
        return False
    first, rest = vertices[0], vertices[1:]
    for order in permutations(rest):
        cycle = (first,) + order
        if all(
            cycle[(i + 1) % len(cycle)] in adjacency[cycle[i]]
            for i in range(len(cycle))
        ):
            return True
    return False


def _brute_cycle_sets(adjacency):
    # A vertex set is a cycle's iff its induced subgraph is hamiltonian.
    found = set()
    for size in range(3, len(adjacency) + 1):
        for subset in combinations(sorted(adjacency), size):
            induced = {
                v: adjacency[v] & set(subset) for v in subset
            }
            if _brute_hamiltonian(induced):
                found.add(frozenset(subset))
    return found


def _random_graphs():
    rng = random.Random(2022)
    graphs = []
    for n in range(3, 7):
        all_edges = list(combinations(range(n), 2))
        for _ in range(12):
            count = rng.randint(0, len(all_edges))
            graphs.append(_adjacency(n, rng.sample(all_edges, count)))
    return graphs


class TestAgainstBruteForce:
    @pytest.mark.parametrize("adjacency", _random_graphs())
    def test_hamiltonicity_matches_permutation_search(self, adjacency):
        assert has_hamiltonian_cycle(adjacency) == _brute_hamiltonian(adjacency)

    @pytest.mark.parametrize("adjacency", _random_graphs())
    def test_cycle_sets_match_induced_subgraph_sweep(self, adjacency):
        assert cycle_vertex_sets(adjacency) == _brute_cycle_sets(adjacency)


class TestCertificates:
    def test_large_cycle_graph_is_hamiltonian_without_search(self):
        n = 500
        ring = _adjacency(n, [(i, (i + 1) % n) for i in range(n)])
        assert has_hamiltonian_cycle(ring)
        assert cycle_vertex_sets(ring) == {frozenset(range(n))}

    def test_large_path_graph_has_no_cycles(self):
        n = 500
        path = _adjacency(n, [(i, i + 1) for i in range(n - 1)])
        assert not has_hamiltonian_cycle(path)
        assert cycle_vertex_sets(path) == set()

    def test_large_clique_is_hamiltonian_without_search(self):
        n = 60
        clique = _adjacency(n, list(combinations(range(n), 2)))
        assert has_hamiltonian_cycle(clique)

    def test_star_graph_is_not_hamiltonian(self):
        star = _adjacency(6, [(0, i) for i in range(1, 6)])
        assert not has_hamiltonian_cycle(star)
        assert cycle_vertex_sets(star) == set()

    def test_two_disjoint_triangles_are_not_hamiltonian(self):
        graph = _adjacency(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not has_hamiltonian_cycle(graph)
        assert cycle_vertex_sets(graph) == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }

    def test_dense_enumeration_respects_the_budget(self):
        clique = _adjacency(30, list(combinations(range(30), 2)))
        with pytest.raises(TopologyError, match="budget|steps"):
            cycle_vertex_sets(clique, budget=10_000)


def _realize(adjacency):
    """Groups whose intersection graph is ``adjacency``: vertex ``v``
    holds its own process and one process per incident edge."""
    edges = sorted({(a, b) for a in adjacency for b in adjacency[a] if a < b})
    procs = make_processes(len(adjacency) + len(edges))
    members = {v: [procs[v]] for v in adjacency}
    for j, (a, b) in enumerate(edges):
        members[a].append(procs[len(adjacency) + j])
        members[b].append(procs[len(adjacency) + j])
    return frozenset(Group(f"v{v}", m) for v, m in members.items())


def _families():
    """Every sampled graph as a family, then rings and hubs 3–9 and
    Figure 1's cyclic families."""
    families = [
        pytest.param(_realize(adjacency), id=f"sample-{i}")
        for i, adjacency in enumerate(_random_graphs())
    ]
    for k in range(3, 10):
        for kind, make in (("ring", ring_topology), ("hub", hub_topology)):
            families.append(
                pytest.param(frozenset(make(k).groups), id=f"{kind}-{k}")
            )
    for family in paper_figure1_topology().cyclic_families():
        families.append(pytest.param(family, id=f"figure-1-{len(family)}"))
    return families


FAMILIES = _families()
HUB_9 = intersection_adjacency(hub_topology(9).groups)


def _trip_point(search, adjacency):
    """The smallest budget at which ``search`` does not raise."""
    low, high = 0, 1
    while True:
        try:
            search(adjacency, budget=high)
            break
        except TopologyError:
            low, high = high, 2 * high
    while low < high:
        middle = (low + high) // 2
        try:
            search(adjacency, budget=middle)
            high = middle
        except TopologyError:
            low = middle + 1
    return high


class TestAgainstRetiredWalks:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_hamiltonian_cycles_in_the_same_order(self, family):
        assert hamiltonian_cycles(family) == _oracle.hamiltonian_cycles(family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_decision_and_cycle_sets_match(self, family):
        adjacency = intersection_adjacency(family)
        assert has_hamiltonian_cycle(adjacency) == _oracle.has_hamiltonian_cycle(
            adjacency
        )
        if adjacency != HUB_9:  # 0.7 s each way; compared once, below
            assert cycle_vertex_sets(adjacency) == _oracle.cycle_vertex_sets(
                adjacency
            )

    @pytest.mark.parametrize("adjacency", _random_graphs()[::3])
    def test_budgets_trip_at_the_same_inspection(self, adjacency):
        for new, old in (
            (has_hamiltonian_cycle, _oracle.has_hamiltonian_cycle),
            (cycle_vertex_sets, _oracle.cycle_vertex_sets),
        ):
            trip = _trip_point(old, adjacency)
            new(adjacency, budget=trip)
            if trip:
                with pytest.raises(TopologyError):
                    new(adjacency, budget=trip - 1)

    def test_dense_hubs_keep_their_outcome(self):
        sets = cycle_vertex_sets(HUB_9)
        assert len(sets) == 466  # every subset of >= 3 groups
        assert sets == _oracle.cycle_vertex_sets(HUB_9)
        with pytest.raises(TopologyError):
            cycle_vertex_sets(intersection_adjacency(hub_topology(10).groups))


class TestTwoFamilyPaths:
    """``cyclic_families`` sweeps subsets up to
    ``FAMILY_BRUTE_FORCE_LIMIT`` groups and walks cycles beyond; where
    both finish they agree, tuple for tuple."""

    @pytest.mark.parametrize(
        "make",
        [
            paper_figure1_topology,
            lambda: ring_topology(7),
            lambda: chain_topology(5),
            lambda: hub_topology(6),
            lambda: disjoint_topology(3, 3),
            lambda: random_topology(11),
            lambda: random_topology(23, process_count=10, group_count=7),
        ],
        ids=[
            "figure-1", "ring-7", "chain-5", "hub-6", "disjoint-3x3",
            "random-11", "random-23",
        ],
    )
    def test_sweep_and_walk_agree(self, make, monkeypatch):
        swept = make().cyclic_families()
        monkeypatch.setattr(topology_module, "FAMILY_BRUTE_FORCE_LIMIT", 0)
        assert make().cyclic_families() == swept
