"""The detector validation harness must *reject* bad histories."""

import pytest

from repro.detectors.validation import (
    check_gamma,
    check_indicator,
    check_omega,
    check_sigma,
)
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset

PROCS = make_processes(4)
ALL = pset(PROCS)
P1, P2, P3, P4 = PROCS


class TestSigmaNegatives:
    def test_disjoint_quorums_flagged(self):
        history = [
            (P1, 0, by_indices(1, 2)),
            (P3, 5, by_indices(3, 4)),
        ]
        pattern = failure_free(ALL)
        violations = check_sigma(history, pattern, ALL)
        assert any("Intersection" in v for v in violations)

    def test_each_disjoint_pair_is_reported_once(self):
        history = [(P1, t, by_indices(1, 2)) for t in range(50)]
        history += [(P3, t, by_indices(3, 4)) for t in range(50, 100)]
        violations = check_sigma(history, failure_free(ALL), ALL)
        assert violations == [
            "Intersection violated: p1@0 -> [p1, p2] vs p3@50 -> [p3, p4]"
        ]

    def test_empty_quorum_flagged(self):
        history = [(P1, 0, frozenset())]
        violations = check_sigma(history, failure_free(ALL), ALL)
        assert any("empty quorum" in v for v in violations)

    def test_quorum_outside_scope_flagged(self):
        history = [(P1, 0, by_indices(4))]
        violations = check_sigma(
            history, failure_free(ALL), by_indices(1, 2)
        )
        assert any("outside scope" in v for v in violations)

    def test_final_faulty_quorum_flagged(self):
        pattern = crash_pattern(ALL, {P2: 0})
        history = [(P1, 50, by_indices(1, 2))]
        violations = check_sigma(history, pattern, ALL)
        assert any("Liveness" in v for v in violations)


class TestOmegaNegatives:
    def test_divergent_final_leaders_flagged(self):
        pattern = failure_free(ALL)
        history = [(P1, 9, P1), (P2, 9, P2)]
        violations = check_omega(history, pattern, ALL)
        assert any("divergent" in v for v in violations)

    def test_faulty_final_leader_flagged(self):
        pattern = crash_pattern(ALL, {P4: 0})
        history = [(P1, 9, P4), (P2, 9, P4), (P3, 9, P4)]
        violations = check_omega(history, pattern, ALL)
        assert any("not a correct member" in v for v in violations)

    def test_vacuous_when_scope_fully_faulty(self):
        pattern = crash_pattern(ALL, {P1: 0, P2: 0})
        history = [(P1, 0, P2)]
        assert check_omega(history, pattern, by_indices(1, 2)) == []


class TestGammaNegatives:
    def test_excluding_a_live_family_flagged(self):
        topo = paper_figure1_topology()
        procs = make_processes(5)
        pattern = failure_free(pset(procs))
        # p1 outputs the empty set though all families are alive.
        history = [(procs[0], 0, frozenset())]
        violations = check_gamma(history, pattern, topo)
        assert any("Accuracy" in v for v in violations)

    def test_keeping_a_dead_family_forever_flagged(self):
        topo = paper_figure1_topology()
        procs = make_processes(5)
        pattern = crash_pattern(pset(procs), {procs[1]: 0})
        dead_family = next(
            f
            for f in topo.cyclic_families()
            if len(f) == 3 and topo.group("g2") in f
        )
        history = [(procs[0], 99, frozenset({dead_family}))]
        violations = check_gamma(history, pattern, topo)
        assert any("Completeness" in v for v in violations)


class TestIndicatorNegatives:
    def test_premature_true_flagged(self):
        pattern = failure_free(ALL)
        history = [(P1, 3, True)]
        violations = check_indicator(history, pattern, by_indices(2))
        assert any("Accuracy" in v for v in violations)

    def test_stuck_false_after_death_flagged(self):
        pattern = crash_pattern(ALL, {P2: 2})
        history = [(P1, 50, False)]
        violations = check_indicator(history, pattern, by_indices(2))
        assert any("Completeness" in v for v in violations)
