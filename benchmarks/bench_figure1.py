"""Figure 1 — the worked example and its combinatorics, made executable.

Regenerates the figure's facts (groups, intersection graph, the cyclic
families f, f', f'' and their closed paths, the detector outputs under
``Correct = {p1, p4, p5}``) and benchmarks the cyclic-family enumeration
on scaled topologies (rings and hubs), printing |G| vs |F| vs |cpaths|.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.detectors.cyclicity import GammaOracle, gamma_groups
from repro.groups.families import cpaths, hamiltonian_cycles
from repro.groups.topology import paper_figure1_topology
from repro.metrics.summary import format_table
from repro.model.failures import crash_pattern
from repro.model.processes import make_processes, pset
from repro.workloads.topologies import hub_topology, ring_topology

ROWS = []


def teardown_module(module):
    print("\n\nFigure 1 and scaled-topology combinatorics:")
    print(format_table(("topology", "|G|", "|F|", "sum |cpaths|"), ROWS))


def test_figure1_families_and_paths(benchmark):
    def enumerate_families():
        topo = paper_figure1_topology()
        families = topo.cyclic_families()
        total_paths = sum(len(cpaths(f)) for f in families)
        return topo, families, total_paths

    topo, families, total_paths = run_once(benchmark, enumerate_families)
    names = {frozenset(g.name for g in f) for f in families}
    assert names == {
        frozenset({"g1", "g2", "g3"}),
        frozenset({"g1", "g3", "g4"}),
        frozenset({"g1", "g2", "g3", "g4"}),
    }
    # Each triangle has 1 cycle (6 rooted oriented paths); the 4-family
    # has a single hamiltonian cycle (8 paths).
    assert total_paths == 6 + 6 + 8
    ROWS.append(("figure-1", len(topo.groups), len(families), total_paths))


def test_figure1_detector_outputs_match_prose(benchmark):
    """§3's narrative: with Correct = {p1,p4,p5}, gamma at p1 stabilizes
    to {f'} and gamma(g1) = {g3, g4}."""

    def scenario():
        topo = paper_figure1_topology()
        procs = make_processes(5)
        pattern = crash_pattern(pset(procs), {procs[1]: 10, procs[2]: 10})
        gamma = GammaOracle(pattern, topo)
        early = gamma.query(procs[0], 0)
        late = gamma.query(procs[0], 10)
        partners = gamma_groups(late, topo.group("g1"))
        return early, late, partners

    early, late, partners = run_once(benchmark, scenario)
    assert len(early) == 3  # f, f', f'' all alive initially
    assert len(late) == 1  # only f' survives
    assert {g.name for g in partners} == {"g3", "g4"}


@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_ring_enumeration_scales(benchmark, k):
    def enumerate_ring():
        topo = ring_topology(k)
        families = topo.cyclic_families()
        return topo, families, sum(len(cpaths(f)) for f in families)

    topo, families, total = run_once(benchmark, enumerate_ring)
    assert len(families) == 1  # the ring itself, only
    assert total == 2 * k  # k rotations x 2 directions
    ROWS.append((f"ring-{k}", k, len(families), total))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_hub_enumeration_counts_clique_cycles(benchmark, k):
    """k groups through one hub process: the intersection graph is K_k,
    so every subset of >= 3 groups is cyclic."""

    def enumerate_hub():
        topo = hub_topology(k)
        families = topo.cyclic_families()
        return topo, families, sum(len(cpaths(f)) for f in families)

    topo, families, total = run_once(benchmark, enumerate_hub)
    from math import comb

    expected = sum(comb(k, size) for size in range(3, k + 1))
    assert len(families) == expected
    ROWS.append((f"hub-{k}", k, len(families), total))
