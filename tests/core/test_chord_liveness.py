"""Regression: liveness when a *chord* intersection dies inside a family
whose hamiltonian cycle stays alive (the Lemma 25 corner).

Topology: ring g-a-h-b-g plus the chord g-h through p9.  Killing p9 makes
every chordless family through edge (g, h) faulty, but the four-group
family keeps a live cycle and is never excluded by gamma.  The derived
wait-set gamma(g) must therefore be computed from chordless families, or
commit(m) waits forever for a (m, h, ·) record nobody can write.
"""

import pytest

from repro.core.engine import MulticastSystem
from repro.groups.families import is_chordless_cycle_family
from repro.groups.topology import paper_figure1_topology, topology_from_indices
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok


@pytest.fixture()
def chorded():
    topo = topology_from_indices(
        9, {"g": [1, 2, 9], "a": [2, 3], "h": [3, 4, 9], "b": [4, 1]}
    )
    return topo, make_processes(9)


def test_topology_has_the_expected_families(chorded):
    topo, _ = chorded
    names = {frozenset(g.name for g in f) for f in topo.cyclic_families()}
    assert names == {
        frozenset({"b", "g", "h"}),
        frozenset({"a", "g", "h"}),
        frozenset({"a", "b", "g", "h"}),
    }
    chordless = [
        f for f in topo.cyclic_families() if is_chordless_cycle_family(f)
    ]
    # The two triangles are chordless; the 4-family has the g-h chord.
    assert len(chordless) == 2


def test_chord_death_does_not_block_delivery(chorded):
    topo, procs = chorded
    pattern = crash_pattern(pset(procs), {procs[8]: 1})  # kill p9 = g∩h
    system = MulticastSystem(topo, pattern, seed=0)
    m = system.multicast(procs[0], "g")
    system.run(max_rounds=300)
    assert system.everyone_delivered(m)
    assert_run_ok(system.record)


def test_failure_free_chorded_topology_delivers(chorded):
    topo, procs = chorded
    system = MulticastSystem(topo, failure_free(pset(procs)), seed=1)
    messages = [
        system.multicast(procs[0], "g"),
        system.multicast(procs[2], "a"),
        system.multicast(procs[3], "h"),
    ]
    system.run(max_rounds=300)
    for m in messages:
        assert system.everyone_delivered(m)
    assert_run_ok(system.record)


def test_figure1_chordless_classification():
    topo = paper_figure1_topology()
    by_size = {
        frozenset(g.name for g in f): is_chordless_cycle_family(f)
        for f in topo.cyclic_families()
    }
    assert by_size[frozenset({"g1", "g2", "g3"})] is True
    assert by_size[frozenset({"g1", "g3", "g4"})] is True
    # f'' has the chord g1-g3.
    assert by_size[frozenset({"g1", "g2", "g3", "g4"})] is False
