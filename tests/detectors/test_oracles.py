"""Tests for oracle-backed failure detectors against their definitions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.detectors.base import BOTTOM
from repro.detectors.cyclicity import GammaOracle, gamma_groups
from repro.detectors.indicator import IndicatorOracle
from repro.detectors.leader import OmegaOracle
from repro.detectors.mu import build_mu
from repro.detectors.quorum import SigmaOracle
from repro.detectors.validation import (
    check_gamma,
    check_indicator,
    check_omega,
    check_sigma,
)
from repro.groups.topology import paper_figure1_topology
from repro.model.errors import DetectorError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset

PROCS = make_processes(5)
ALL = pset(PROCS)
P1, P2, P3, P4, P5 = PROCS


def drive(detector, processes, times):
    """Sample the detector at each process/time and return the history."""
    for t in times:
        for p in processes:
            detector.sample(p, t)
    return detector.history


class TestSigmaOracle:
    def test_scope_must_be_non_empty(self):
        with pytest.raises(DetectorError):
            SigmaOracle(failure_free(ALL), frozenset())

    def test_quorums_always_intersect(self):
        pattern = crash_pattern(ALL, {P1: 3, P2: 7})
        sigma = SigmaOracle(pattern, ALL)
        history = drive(sigma, PROCS, range(0, 12, 2))
        assert check_sigma(history, pattern, ALL) == []

    def test_eventual_quorums_are_correct(self):
        pattern = crash_pattern(ALL, {P1: 2})
        sigma = SigmaOracle(pattern, ALL)
        late = sigma.query(P3, 100)
        assert late <= pattern.correct

    def test_fully_faulty_scope_pins_to_scope(self):
        scope = by_indices(1, 2)
        pattern = crash_pattern(ALL, {P1: 0, P2: 5})
        sigma = SigmaOracle(pattern.restricted_to(scope), scope)
        assert sigma.query(P1, 0) == scope
        assert sigma.query(P1, 99) == scope
        history = drive(sigma, [P1, P2], range(0, 10))
        assert check_sigma(history, pattern, scope) == []

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(PROCS), st.integers(min_value=0, max_value=20),
            max_size=4,
        )
    )
    def test_property_histories_are_admissible(self, crashes):
        pattern = crash_pattern(ALL, crashes)
        sigma = SigmaOracle(pattern, ALL)
        history = drive(sigma, PROCS, range(0, 30, 3))
        assert check_sigma(history, pattern, ALL) == []


class TestOmegaOracle:
    def test_leadership_reached_after_stabilization(self):
        pattern = crash_pattern(ALL, {P1: 4})
        omega = OmegaOracle(pattern, ALL)
        history = drive(omega, [p for p in PROCS if p != P1], range(0, 10))
        assert check_omega(history, pattern, ALL) == []
        assert omega.query(P2, 9) == P2  # smallest correct process

    def test_pre_stabilization_output_may_be_faulty(self):
        pattern = crash_pattern(ALL, {P1: 6})
        omega = OmegaOracle(pattern, ALL, stabilization_time=6)
        assert omega.query(P2, 0) == P1  # alive but doomed
        assert omega.query(P2, 6) == P2

    def test_fully_faulty_scope_is_vacuous(self):
        scope = by_indices(1)
        pattern = crash_pattern(ALL, {P1: 0})
        omega = OmegaOracle(pattern.restricted_to(scope), scope)
        assert omega.query(P1, 0) == P1
        history = drive(omega, [P1], range(3))
        assert check_omega(history, pattern, scope) == []

    def test_singleton_scope_is_trivial(self):
        # Omega_{p} always elects p (§3's example of restriction).
        pattern = failure_free(ALL)
        omega = OmegaOracle(pattern, by_indices(3))
        assert omega.query(P3, 0) == P3


class TestGammaOracle:
    @pytest.fixture()
    def fig1(self):
        return paper_figure1_topology()

    def test_initial_output_is_all_families_of_p1(self, fig1):
        pattern = crash_pattern(ALL, {P2: 10, P3: 10})
        gamma = GammaOracle(pattern, fig1)
        assert gamma.query(P1, 0) == frozenset(fig1.cyclic_families())

    def test_output_stabilizes_to_surviving_family(self, fig1):
        """The §3 worked example: Correct={p1,p4,p5}; eventually gamma at
        p1 returns only f' = {g1, g3, g4} and gamma(g1) = {g3, g4}."""
        pattern = crash_pattern(ALL, {P2: 10, P3: 10})
        gamma = GammaOracle(pattern, fig1)
        late = gamma.query(P1, 10)
        names = {frozenset(g.name for g in fam) for fam in late}
        assert names == {frozenset({"g1", "g3", "g4"})}
        partners = gamma_groups(late, fig1.group("g1"))
        assert {g.name for g in partners} == {"g3", "g4"}

    def test_process_outside_intersections_sees_nothing(self, fig1):
        gamma = GammaOracle(failure_free(ALL), fig1)
        assert gamma.query(P5, 0) == frozenset()

    def test_detection_lag_delays_exclusion_but_stays_accurate(self, fig1):
        pattern = crash_pattern(ALL, {P2: 5, P3: 5})
        gamma = GammaOracle(pattern, fig1, detection_lag=4)
        # At t=6 the family is faulty but not yet excluded: allowed.
        f = frozenset(fig1.group(n) for n in ("g1", "g2", "g3"))
        assert f in gamma.query(P1, 6)
        assert f not in gamma.query(P1, 9)
        history = drive(gamma, PROCS, range(0, 20, 2))
        assert check_gamma(history, pattern, fig1) == []

    def test_oracle_histories_pass_validation(self, fig1):
        pattern = crash_pattern(ALL, {P2: 3})
        gamma = GammaOracle(pattern, fig1)
        history = drive(gamma, PROCS, range(0, 10))
        assert check_gamma(history, pattern, fig1) == []


class TestIndicatorOracle:
    def test_raises_only_after_collective_death(self):
        watched = by_indices(1, 2)
        pattern = crash_pattern(ALL, {P1: 2, P2: 6})
        ind = IndicatorOracle(pattern, watched)
        assert not ind.query(P3, 5)
        assert ind.query(P3, 6)
        history = drive(ind, PROCS, range(0, 10))
        assert check_indicator(history, pattern, watched) == []

    def test_never_raises_when_a_member_is_correct(self):
        watched = by_indices(1, 2)
        pattern = crash_pattern(ALL, {P1: 0})
        ind = IndicatorOracle(pattern, watched)
        assert not ind.query(P3, 10**6)

    def test_detection_lag(self):
        watched = by_indices(4)
        pattern = crash_pattern(ALL, {P4: 3})
        ind = IndicatorOracle(pattern, watched, detection_lag=5)
        assert not ind.query(P1, 7)
        assert ind.query(P1, 8)


class TestRestriction:
    """Set restriction ``D_P`` (§3), as applied by ``Mu.query``."""

    def test_bottom_outside_scope(self):
        mu = build_mu(failure_free(ALL), paper_figure1_topology())
        # Sigma_{g2} has scope g2 = {p2, p3}: bottom outside, a quorum inside.
        assert mu.query(P1, 0)["sigma:p2,p3"] is BOTTOM
        assert mu.query(P2, 0)["sigma:p2,p3"] is not BOTTOM
        # Sigma_{g1 ∩ g3} has scope {p1}.
        assert mu.query(P3, 0)["sigma:p1"] is BOTTOM
        assert mu.query(P1, 0)["sigma:p1"] is not BOTTOM


class TestRecoveryOverlay:
    """DESIGN.md §16, "The overlay and the detectors": a process with a
    rejoin is correct, and every oracle keeps its properties."""

    # P1 is down over [2, 8) and rejoins, P2 crashes for good at 4, and P4
    # (outside the scope) is down over [1, 5).
    PATTERN = crash_pattern(ALL, {P1: 2, P2: 4, P4: 1}).with_recovery(
        P1, 8
    ).with_recovery(P4, 5)
    SCOPE = by_indices(1, 2, 3)

    def test_sigma_epochs_are_the_scopes_change_instants(self):
        for pattern in (self.PATTERN, self.PATTERN.restricted_to(self.SCOPE)):
            sigma = SigmaOracle(pattern, self.SCOPE)
            assert sigma.instants == [2, 4, 8]
            history = drive(sigma, PROCS, range(12))
            assert check_sigma(history, self.PATTERN, self.SCOPE) == []
            assert sigma.query(P3, 5) == {P1, P3}  # P1 down, still quoted

    def test_omega_elects_the_recovering_member(self):
        for pattern in (self.PATTERN, self.PATTERN.restricted_to(self.SCOPE)):
            omega = OmegaOracle(pattern, self.SCOPE, stabilization_time=8)
            assert omega.instants == [2, 4, 8]
            assert omega.query(P3, 3) == P2
            assert omega.query(P3, 8) == P1
            history = drive(omega, [P1, P3], range(12))
            assert check_omega(history, self.PATTERN, self.SCOPE) == []

    def test_indicator_never_reports_a_set_that_comes_back(self):
        assert not IndicatorOracle(self.PATTERN, by_indices(1, 2)).query(P3, 5)
        dead = IndicatorOracle(self.PATTERN, by_indices(2))
        assert not dead.query(P3, 3) and dead.query(P3, 4)

    def test_gamma_keeps_a_family_whose_intersection_rejoins(self):
        """p2 = g1 ∩ g2 down over [3, 10): no family is faulty."""
        topology = paper_figure1_topology()
        procs = sorted(topology.processes)
        pattern = crash_pattern(pset(procs), {procs[1]: 3}).with_recovery(
            procs[1], 10
        )
        gamma = GammaOracle(pattern, topology)
        p1 = procs[0]
        assert gamma.query(p1, 5) == gamma.query(p1, 0)
        history = drive(gamma, procs, range(12))
        assert check_gamma(history, pattern, topology) == []
