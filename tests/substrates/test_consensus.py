"""Tests for leader-driven consensus from Omega ∧ Sigma."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.detectors.leader import OmegaOracle
from repro.detectors.quorum import SigmaOracle
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.sim.kernel import Kernel
from repro.substrates.consensus import ConsensusAutomaton, OmegaSigmaSampler

PROCS = make_processes(4)
SCOPE = pset(PROCS)


def run_consensus(pattern, proposals, seed, rounds=300, omega_stab=None):
    scope = pattern.processes
    automata = {p: ConsensusAutomaton(p, scope) for p in sorted(scope)}
    sampler = OmegaSigmaSampler.of(pattern, scope)
    if omega_stab is not None:
        restricted = pattern.restricted_to(scope)
        omega = OmegaOracle(restricted, scope, stabilization_time=omega_stab)
        sampler = OmegaSigmaSampler(omega, SigmaOracle(restricted, scope))
    for p, value in proposals.items():
        automata[p].propose(value)
    kernel = Kernel(pattern, automata, dict.fromkeys(automata, sampler), seed=seed)
    kernel.run(
        rounds,
        stop_when=lambda: all(automata[p].decision is not None for p in pattern.correct),
    )
    return automata, kernel


class TestFailureFree:
    def test_agreement_validity_termination(self):
        pattern = failure_free(SCOPE)
        proposals = {p: f"v{p.index}" for p in PROCS}
        automata, _ = run_consensus(pattern, proposals, seed=1)
        decisions = {automata[p].decision for p in PROCS}
        assert len(decisions) == 1
        assert decisions.pop() in proposals.values()

    def test_single_proposer_decides_own_value(self):
        pattern = failure_free(SCOPE)
        automata, _ = run_consensus(pattern, {PROCS[2]: "only"}, seed=2)
        assert all(automata[p].decision == "only" for p in PROCS)


class TestWithCrashes:
    def test_minority_crash_tolerated(self):
        pattern = crash_pattern(SCOPE, {PROCS[0]: 15})
        proposals = {p: f"v{p.index}" for p in PROCS}
        automata, _ = run_consensus(pattern, proposals, seed=3)
        decisions = {automata[p].decision for p in pattern.correct}
        assert len(decisions) == 1

    def test_leader_crash_triggers_takeover(self):
        # p1 is the pre-stabilization leader; it dies mid-run.
        pattern = crash_pattern(SCOPE, {PROCS[0]: 10})
        proposals = {PROCS[1]: "x", PROCS[3]: "y"}
        automata, _ = run_consensus(
            pattern, proposals, seed=4, omega_stab=12
        )
        decisions = {automata[p].decision for p in pattern.correct}
        assert len(decisions) == 1
        assert decisions.pop() in {"x", "y"}

    def test_two_crashes_with_sigma_quorums(self):
        """Sigma-based quorums shrink with the crashes, so even a
        2-of-4 survivor set terminates (no majority assumption)."""
        pattern = crash_pattern(SCOPE, {PROCS[0]: 12, PROCS[3]: 12})
        proposals = {p: f"v{p.index}" for p in PROCS}
        automata, _ = run_consensus(pattern, proposals, seed=5, rounds=400)
        decisions = {automata[p].decision for p in pattern.correct}
        assert len(decisions) == 1

    @pytest.mark.parametrize(
        "size, crashes, rounds", [(3, 0, 5), (5, 0, 9), (5, 1, 16), (5, 2, 12)]
    )
    def test_rounds_to_decision(self, size, crashes, rounds):
        """EXPERIMENTS.md "E8": crashes inside the leader's accept phase."""
        procs = make_processes(size)
        pattern = crash_pattern(pset(procs), dict.fromkeys(procs[:crashes], 6))
        proposals = {p: f"v{p.index}" for p in procs}
        automata, kernel = run_consensus(pattern, proposals, seed=size, rounds=500)
        assert kernel.time == rounds
        assert len({automata[p].decision for p in pattern.correct}) == 1


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
        automata, _ = run_consensus(pattern, proposals, seed=seed, rounds=400)
        decisions = {
            automata[p].decision
            for p in pattern.correct
            if automata[p].decision is not None
        }
        assert len(decisions) <= 1
        # Termination for correct processes.
        assert all(
            automata[p].decision is not None for p in pattern.correct
        )
        if decisions:
            assert decisions.pop() in proposals.values()
