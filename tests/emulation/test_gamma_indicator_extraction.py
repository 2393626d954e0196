"""Tests for Algorithms 3 and 4: emulated gamma and 1^{g∩h}."""

import pytest

from repro.detectors.validation import check_gamma, check_indicator
from repro.emulation.gamma_extraction import GammaExtraction
from repro.emulation.indicator_extraction import IndicatorExtraction
from repro.groups.families import cpaths, hamiltonian_cycles
from repro.groups.topology import paper_figure1_topology, topology_from_indices
from repro.model.errors import DetectorError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset
from repro.workloads.topologies import chain_topology, ring_topology


def drive_gamma(extraction, pattern, rounds):
    history = []
    for _ in range(rounds):
        extraction.tick()
        for p in sorted(pattern.processes):
            if pattern.is_alive(p, extraction.time):
                history.append(
                    (p, extraction.time, extraction.query(p, extraction.time))
                )
    return history


class TestGammaExtraction:
    def test_failure_free_family_stays_output(self):
        topo = ring_topology(3)
        procs = make_processes(3)
        pattern = failure_free(pset(procs))
        ext = GammaExtraction(topo, pattern, seed=1)
        history = drive_gamma(ext, pattern, rounds=30)
        assert check_gamma(history, pattern, topo) == []
        assert len(ext.query(procs[0], ext.time)) == 1

    def test_ring_edge_death_excludes_the_family(self):
        topo = ring_topology(3)
        procs = make_processes(3)
        pattern = crash_pattern(pset(procs), {procs[1]: 5})
        ext = GammaExtraction(topo, pattern, seed=2)
        history = drive_gamma(ext, pattern, rounds=60)
        assert check_gamma(history, pattern, topo) == []
        for p in (procs[0], procs[2]):
            assert ext.query(p, ext.time) == frozenset()

    def test_ring4_single_edge_death_detected_via_chain(self):
        """In a 4-ring, killing one intersection leaves three live edges:
        the chain must relay across them to reach the far observers."""
        topo = ring_topology(4)
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[2]: 4})  # kills g2∩g3
        ext = GammaExtraction(topo, pattern, seed=3)
        history = drive_gamma(ext, pattern, rounds=90)
        assert check_gamma(history, pattern, topo) == []
        for p in pattern.correct:
            if topo.families_of_process(p):
                assert ext.query(p, ext.time) == frozenset()

    def test_two_dead_edges_converse_chains(self):
        """Two opposite intersections die: no single chain can complete,
        so exclusion relies on the converse-direction rule."""
        topo = ring_topology(4)
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[0]: 4, procs[2]: 4})
        ext = GammaExtraction(topo, pattern, seed=4)
        history = drive_gamma(ext, pattern, rounds=120)
        assert check_gamma(history, pattern, topo) == []

    def test_figure1_scenario(self):
        """Correct = {p1, p4, p5}: eventually only f' remains at p1."""
        topo = paper_figure1_topology()
        procs = make_processes(5)
        pattern = crash_pattern(pset(procs), {procs[1]: 6, procs[2]: 6})
        ext = GammaExtraction(topo, pattern, seed=5)
        history = drive_gamma(ext, pattern, rounds=150)
        assert check_gamma(history, pattern, topo) == []
        final = ext.query(procs[0], ext.time)
        names = {frozenset(g.name for g in fam) for fam in final}
        assert names == {frozenset({"g1", "g3", "g4"})}

    def test_exclusion_latency_and_chain_length_on_rings(self):
        """EXPERIMENTS.md "E6": p2 of a k-ring dies at round 4."""

        def latencies(k):
            procs = make_processes(k)
            pattern = crash_pattern(pset(procs), {procs[1]: 4})
            ext = GammaExtraction(ring_topology(k), pattern, seed=k)
            history, excluded, chained = [], None, None
            while None in (excluded, chained) and ext.time < 400:
                history += drive_gamma(ext, pattern, rounds=1)
                if excluded is None and not ext.query(procs[0], ext.time):
                    excluded = ext.time - 4
                # Some path's complete chain (stage |π|-3) reached p1.
                inbox = ext._received[procs[0]]
                if chained is None and any(
                    len(path) - 3 in stages for path, stages in inbox.items()
                ):
                    chained = ext.time - 4
            assert check_gamma(history, pattern, ext.topology) == []
            return excluded, chained

        # (rounds to exclusion at p1, to its full chain): one relay per
        # live edge, so the chain grows with k and exclusion does not.
        assert [latencies(k) for k in (3, 4, 5)] == [(1, 2), (1, 3), (1, 4)]


    def test_cycles_of_another_topology_never_leak_in(self):
        """Two topologies with equal families but other group names: the
        first one's closed paths must not hand their groups to the
        second's extraction (it would multicast to foreign names)."""
        a = topology_from_indices(3, {"g1": [1, 2], "g2": [2, 3], "g3": [3, 1]})
        b = topology_from_indices(3, {"g1": [2, 3], "g2": [3, 1], "g3": [1, 2]})
        cpaths(a.cyclic_families()[0])

        def queries(topo):
            ext = GammaExtraction(topo, failure_free(topo.processes), seed=0)
            ext.run(40)
            return [ext.query(p, ext.time) for p in sorted(topo.processes)]

        fresh = topology_from_indices(
            3, {"g1": [2, 3], "g2": [3, 1], "g3": [1, 2]}
        )
        assert queries(b) == queries(fresh)
        for cycle in hamiltonian_cycles(b.cyclic_families()[0]):
            assert all(g is b.group(g.name) for g in cycle)


class TestIndicatorExtraction:
    def test_requires_intersecting_groups(self):
        from repro.groups.topology import topology_from_indices

        disjoint = topology_from_indices(4, {"a": [1, 2], "b": [3, 4]})
        with pytest.raises(DetectorError):
            IndicatorExtraction(
                disjoint, failure_free(pset(make_processes(4))), "a", "b"
            )

    def test_never_raises_while_intersection_lives(self):
        topo = chain_topology(2)
        procs = make_processes(3)
        pattern = failure_free(pset(procs))
        ext = IndicatorExtraction(topo, pattern, "g1", "g2", seed=1)
        ext.run(40)
        history = [(p, ext.time, ext.query(p, ext.time)) for p in procs]
        assert check_indicator(history, pattern, ext.watched) == []
        assert not any(ext.query(p, ext.time) for p in procs)

    def test_raises_after_intersection_death(self):
        topo = chain_topology(2)
        procs = make_processes(3)
        pattern = crash_pattern(pset(procs), {procs[1]: 6})
        ext = IndicatorExtraction(topo, pattern, "g1", "g2", seed=2)
        history = []
        for _ in range(80):
            ext.tick()
            for p in procs:
                if pattern.is_alive(p, ext.time):
                    history.append((p, ext.time, ext.query(p, ext.time)))
        assert check_indicator(history, pattern, ext.watched) == []
        assert ext.query(procs[0], ext.time)
        assert ext.query(procs[2], ext.time)

    def test_partial_intersection_death_is_not_reported(self):
        """|g∩h| = 2: killing one member must not raise the indicator."""
        from repro.groups.topology import topology_from_indices

        topo = topology_from_indices(4, {"g": [1, 2, 3], "h": [2, 3, 4]})
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[1]: 5})
        ext = IndicatorExtraction(topo, pattern, "g", "h", seed=3)
        history = []
        for _ in range(80):
            ext.tick()
            for p in procs:
                if pattern.is_alive(p, ext.time):
                    history.append((p, ext.time, ext.query(p, ext.time)))
        assert check_indicator(history, pattern, ext.watched) == []
        assert not ext.query(procs[0], ext.time)

    def test_full_wide_intersection_death_is_reported(self):
        from repro.groups.topology import topology_from_indices

        topo = topology_from_indices(4, {"g": [1, 2, 3], "h": [2, 3, 4]})
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[1]: 5, procs[2]: 7})
        ext = IndicatorExtraction(topo, pattern, "g", "h", seed=4)
        history = []
        for _ in range(100):
            ext.tick()
            for p in procs:
                if pattern.is_alive(p, ext.time):
                    history.append((p, ext.time, ext.query(p, ext.time)))
        assert check_indicator(history, pattern, ext.watched) == []
        assert ext.query(procs[0], ext.time)
        assert ext.query(procs[3], ext.time)
