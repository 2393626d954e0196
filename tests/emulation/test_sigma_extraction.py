"""Tests for Algorithm 2: the emulated Sigma_{g∩h} must satisfy the
quorum-detector properties (validated with the same harness as oracles)."""

import pytest

from repro.detectors.base import BOTTOM
from repro.detectors.validation import check_sigma
from repro.emulation.sigma_extraction import SigmaExtraction
from repro.groups.topology import paper_figure1_topology, topology_from_indices
from repro.model.errors import DetectorError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset


def drive(extraction, pattern, rounds, sample_every=5):
    """Run the extraction, sampling the scope's live members."""
    history = []
    for r in range(rounds):
        extraction.tick()
        if r % sample_every == 0:
            for p in sorted(extraction.scope):
                if pattern.is_alive(p, extraction.time):
                    history.append(
                        (p, extraction.time, extraction.query(p, extraction.time))
                    )
    return history


@pytest.fixture()
def wide_intersection():
    """g = {p1,p2,p3}, h = {p2,p3,p4}: scope g∩h = {p2,p3}."""
    return topology_from_indices(4, {"g": [1, 2, 3], "h": [2, 3, 4]})


class TestConstruction:
    def test_requires_one_or_two_groups(self, wide_intersection):
        procs = make_processes(4)
        pattern = failure_free(pset(procs))
        with pytest.raises(DetectorError):
            SigmaExtraction(wide_intersection, pattern, [])

    def test_disjoint_groups_rejected(self):
        topo = topology_from_indices(4, {"g": [1, 2], "h": [3, 4]})
        pattern = failure_free(pset(make_processes(4)))
        with pytest.raises(DetectorError):
            SigmaExtraction(topo, pattern, ["g", "h"])

    def test_bottom_outside_scope(self, wide_intersection):
        procs = make_processes(4)
        pattern = failure_free(pset(procs))
        ext = SigmaExtraction(wide_intersection, pattern, ["g", "h"], seed=1)
        assert ext.query(procs[0], 0) is BOTTOM  # p1 not in g∩h


class TestEmulatedProperties:
    def test_failure_free_history_is_admissible(self, wide_intersection):
        procs = make_processes(4)
        pattern = failure_free(pset(procs))
        ext = SigmaExtraction(wide_intersection, pattern, ["g", "h"], seed=2)
        history = drive(ext, pattern, rounds=30)
        assert check_sigma(history, pattern, ext.scope) == []

    def test_crash_outside_intersection_is_tolerated(self, wide_intersection):
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[0]: 6})
        ext = SigmaExtraction(wide_intersection, pattern, ["g", "h"], seed=3)
        history = drive(ext, pattern, rounds=40)
        assert check_sigma(history, pattern, ext.scope) == []

    def test_liveness_quorum_becomes_correct(self, wide_intersection):
        """After p2 (in the scope) crashes, the emulated quorum at the
        correct member p3 eventually contains only correct processes."""
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[1]: 5})
        ext = SigmaExtraction(wide_intersection, pattern, ["g", "h"], seed=4)
        history = drive(ext, pattern, rounds=60)
        assert check_sigma(history, pattern, ext.scope) == []
        final = ext.query(procs[2], ext.time)
        assert final <= pattern.correct

    def test_single_group_mode_emulates_sigma_g(self):
        topo = topology_from_indices(3, {"g": [1, 2, 3]})
        procs = make_processes(3)
        pattern = crash_pattern(pset(procs), {procs[0]: 4})
        ext = SigmaExtraction(topo, pattern, ["g"], seed=5)
        assert ext.scope == by_indices(1, 2, 3)
        history = drive(ext, pattern, rounds=50)
        assert check_sigma(history, pattern, ext.scope) == []

    def test_figure1_singleton_intersection(self):
        topo = paper_figure1_topology()
        procs = make_processes(5)
        pattern = crash_pattern(pset(procs), {procs[1]: 5})
        ext = SigmaExtraction(topo, pattern, ["g1", "g3"], seed=6)
        assert ext.scope == by_indices(1)
        history = drive(ext, pattern, rounds=40)
        assert check_sigma(history, pattern, ext.scope) == []
        # p1 is correct: its quorum stabilizes to itself.
        assert ext.query(procs[0], ext.time) == by_indices(1)

    @pytest.mark.parametrize("width, converged_at", [(1, None), (2, 5)])
    def test_survivor_quorum_convergence(self, width, converged_at):
        """EXPERIMENTS.md "E5": p2 of a ``width``-member g∩h dies at round 5."""
        overlap = list(range(2, 2 + width))
        groups = {"g": [1, *overlap], "h": [*overlap, 2 + width]}
        topo = topology_from_indices(2 + width, groups)
        procs = make_processes(2 + width)
        pattern = crash_pattern(pset(procs), {procs[1]: 5})
        ext = SigmaExtraction(topo, pattern, ["g", "h"], seed=width)
        history, converged = [], None
        while converged is None and ext.time < 150:
            history += drive(ext, pattern, rounds=1)
            if width > 1 and ext.query(procs[2], ext.time) <= pattern.correct:
                converged = ext.time
        assert check_sigma(history, pattern, ext.scope) == []
        assert converged == converged_at


class TestResponsiveness:
    def test_only_quorate_subsets_become_responsive(self, wide_intersection):
        """In a failure-free run, a strict subset of g cannot deliver:
        the silent members block its Sigma quorums."""
        procs = make_processes(4)
        pattern = failure_free(pset(procs))
        ext = SigmaExtraction(wide_intersection, pattern, ["g", "h"], seed=7)
        ext.run(30)
        g = wide_intersection.group("g")
        responsive = ext._responsive_sets(procs[1], g)
        proper = [x for x in responsive if x != g.members]
        assert proper == []

    def test_crash_makes_survivor_subset_responsive(self, wide_intersection):
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[0]: 3})
        ext = SigmaExtraction(wide_intersection, pattern, ["g", "h"], seed=8)
        ext.run(60)
        g = wide_intersection.group("g")
        responsive = ext._responsive_sets(procs[1], g)
        assert by_indices(2, 3) in responsive
