"""Tests for detector comparisons: Proposition 51 and Corollary 52."""

import pytest

from repro.detectors.comparison import (
    GammaFromIndicators,
    distinguishing_scenario_gamma_vs_indicator,
    gamma_histories_agree,
)
from repro.detectors.cyclicity import GammaOracle
from repro.detectors.validation import check_gamma
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.workloads.topologies import ring_topology

PROCS5 = make_processes(5)
ALL5 = pset(PROCS5)


class TestProposition51:
    """The indicator conjunction implements gamma."""

    def test_failure_free_outputs_all_families(self):
        topo = paper_figure1_topology()
        pattern = failure_free(ALL5)
        derived = GammaFromIndicators.with_oracles(topo, pattern)
        assert derived.query(PROCS5[0], 0) == frozenset(
            topo.cyclic_families()
        )

    def test_derived_gamma_matches_oracle_on_figure1(self):
        topo = paper_figure1_topology()
        pattern = crash_pattern(ALL5, {PROCS5[1]: 4, PROCS5[2]: 7})
        derived = GammaFromIndicators.with_oracles(topo, pattern)
        oracle = GammaOracle(pattern, topo)
        for t in (0, 3, 4, 6, 7, 20):
            for p in PROCS5:
                assert derived.query(p, t) == oracle.query(p, t), (p, t)

    def test_derived_histories_pass_the_gamma_validator(self):
        topo = ring_topology(4)
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[2]: 5})
        derived = GammaFromIndicators.with_oracles(topo, pattern)
        history = []
        for t in range(0, 15):
            for p in procs:
                if pattern.is_alive(p, t):
                    history.append((p, t, derived.query(p, t)))
        assert check_gamma(history, pattern, topo) == []

    def test_indicator_lag_translates_to_gamma_lag(self):
        topo = ring_topology(3)
        procs = make_processes(3)
        pattern = crash_pattern(pset(procs), {procs[0]: 2})
        derived = GammaFromIndicators.with_oracles(
            topo, pattern, detection_lag=5
        )
        family = topo.cyclic_families()[0]
        # Faulty at t=2, but the indicators only fire at t=7.
        assert family in derived.query(procs[1], 6)
        assert family not in derived.query(procs[1], 7)


class TestCorollary52:
    """gamma cannot implement 1^{g∩h}: the distinguishing scenario."""

    def test_witness_exists_on_figure1(self):
        topo = paper_figure1_topology()
        witness = distinguishing_scenario_gamma_vs_indicator(
            topo, "g1", "g2"
        )
        assert witness is not None
        pattern_f, pattern_f_prime = witness
        shared = topo.group("g1").intersection(topo.group("g2"))
        # In F the intersection is correct; in F' it is initially dead.
        assert not (pattern_f.faulty & shared)
        assert all(p in pattern_f_prime.faulty for p in shared)

    def test_gamma_cannot_distinguish_the_two_patterns(self):
        """Identical gamma histories at the processes outside g1∩g2 —
        while any correct indicator must answer differently."""
        topo = paper_figure1_topology()
        pattern_f, pattern_f_prime = (
            distinguishing_scenario_gamma_vs_indicator(topo, "g1", "g2")
        )
        shared = topo.group("g1").intersection(topo.group("g2"))
        observers = [
            p
            for p in PROCS5
            if p not in shared
            and pattern_f.is_correct(p)
            and pattern_f_prime.is_correct(p)
        ]
        assert observers
        assert gamma_histories_agree(
            topo, pattern_f, pattern_f_prime, observers, horizon=20
        )

    def test_disjoint_pair_has_no_witness(self):
        from repro.groups.topology import topology_from_indices

        topo = topology_from_indices(4, {"a": [1, 2], "b": [3, 4]})
        assert (
            distinguishing_scenario_gamma_vs_indicator(topo, "a", "b")
            is None
        )
