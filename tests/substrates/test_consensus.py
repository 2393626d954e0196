"""Tests for leader-driven consensus from Omega ∧ Sigma."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.detectors.leader import OmegaOracle
from repro.detectors.quorum import SigmaOracle
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.sim.kernel import Kernel
from repro.substrates.consensus import ConsensusCluster, OmegaSigmaSampler

PROCS = make_processes(4)
SCOPE = pset(PROCS)


def run_consensus(pattern, proposals, seed, rounds=300, omega_stab=None):
    cluster = ConsensusCluster(pattern, SCOPE)
    detectors = cluster.detectors
    if omega_stab is not None:
        restricted = pattern.restricted_to(SCOPE)
        omega = OmegaOracle(restricted, SCOPE, stabilization_time=omega_stab)
        sampler = OmegaSigmaSampler(omega, SigmaOracle(restricted, SCOPE))
        detectors = dict.fromkeys(SCOPE, sampler)
    for p, value in proposals.items():
        cluster.propose(p, value)
    kernel = Kernel(pattern, cluster.automata, detectors, seed=seed)
    kernel.run(
        rounds,
        stop_when=lambda: cluster.decided_everywhere(pattern.correct),
    )
    return cluster, kernel


class TestFailureFree:
    def test_agreement_validity_termination(self):
        pattern = failure_free(SCOPE)
        proposals = {p: f"v{p.index}" for p in PROCS}
        cluster, _ = run_consensus(pattern, proposals, seed=1)
        decisions = {cluster.decision_at(p) for p in PROCS}
        assert len(decisions) == 1
        assert decisions.pop() in proposals.values()

    def test_single_proposer_decides_own_value(self):
        pattern = failure_free(SCOPE)
        cluster, _ = run_consensus(pattern, {PROCS[2]: "only"}, seed=2)
        assert all(cluster.decision_at(p) == "only" for p in PROCS)


class TestWithCrashes:
    def test_minority_crash_tolerated(self):
        pattern = crash_pattern(SCOPE, {PROCS[0]: 15})
        proposals = {p: f"v{p.index}" for p in PROCS}
        cluster, _ = run_consensus(pattern, proposals, seed=3)
        decisions = {cluster.decision_at(p) for p in pattern.correct}
        assert len(decisions) == 1

    def test_leader_crash_triggers_takeover(self):
        # p1 is the pre-stabilization leader; it dies mid-run.
        pattern = crash_pattern(SCOPE, {PROCS[0]: 10})
        proposals = {PROCS[1]: "x", PROCS[3]: "y"}
        cluster, _ = run_consensus(
            pattern, proposals, seed=4, omega_stab=12
        )
        decisions = {cluster.decision_at(p) for p in pattern.correct}
        assert len(decisions) == 1
        assert decisions.pop() in {"x", "y"}

    def test_two_crashes_with_sigma_quorums(self):
        """Sigma-based quorums shrink with the crashes, so even a
        2-of-4 survivor set terminates (no majority assumption)."""
        pattern = crash_pattern(SCOPE, {PROCS[0]: 12, PROCS[3]: 12})
        proposals = {p: f"v{p.index}" for p in PROCS}
        cluster, _ = run_consensus(pattern, proposals, seed=5, rounds=400)
        decisions = {cluster.decision_at(p) for p in pattern.correct}
        assert len(decisions) == 1


class TestRandomized:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        crash_index=st.integers(min_value=0, max_value=3),
        crash_time=st.integers(min_value=0, max_value=30),
    )
    def test_agreement_under_random_schedules(
        self, seed, crash_index, crash_time
    ):
        pattern = crash_pattern(SCOPE, {PROCS[crash_index]: crash_time})
        proposals = {p: f"v{p.index}" for p in PROCS}
        cluster, _ = run_consensus(pattern, proposals, seed=seed, rounds=400)
        decisions = {
            cluster.decision_at(p)
            for p in pattern.correct
            if cluster.decision_at(p) is not None
        }
        assert len(decisions) <= 1
        # Termination for correct processes.
        assert all(
            cluster.decision_at(p) is not None for p in pattern.correct
        )
        if decisions:
            assert decisions.pop() in proposals.values()
