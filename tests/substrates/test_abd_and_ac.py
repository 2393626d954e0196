"""Tests for the ABD register and message-passing adopt-commit."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.detectors.quorum import SigmaOracle
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.sim.kernel import Kernel
from repro.substrates.abd import RegisterAutomaton
from repro.substrates.adopt_commit import AdoptCommitAutomaton

PROCS = make_processes(3)
SCOPE = pset(PROCS)


def register_kernel(pattern, seed=0):
    automata = {p: RegisterAutomaton(p, SCOPE) for p in PROCS}
    detectors = {
        p: SigmaOracle(pattern.restricted_to(SCOPE), SCOPE) for p in PROCS
    }
    return automata, Kernel(pattern, automata, detectors, seed=seed)


class TestABDRegister:
    def test_read_your_write(self):
        pattern = failure_free(SCOPE)
        autos, kernel = register_kernel(pattern, seed=1)
        w = autos[PROCS[0]].invoke_write("hello")
        kernel.run(80)
        assert autos[PROCS[0]].result_of(w) == ("write", "hello")
        r = autos[PROCS[0]].invoke_read()
        kernel.run(80)
        assert autos[PROCS[0]].result_of(r) == ("read", "hello")

    def test_read_sees_completed_remote_write(self):
        pattern = failure_free(SCOPE)
        autos, kernel = register_kernel(pattern, seed=2)
        w = autos[PROCS[2]].invoke_write(7)
        kernel.run(80)
        assert autos[PROCS[2]].result_of(w) is not None
        r = autos[PROCS[0]].invoke_read()
        kernel.run(80)
        assert autos[PROCS[0]].result_of(r) == ("read", 7)

    def test_initial_read_returns_none(self):
        pattern = failure_free(SCOPE)
        autos, kernel = register_kernel(pattern, seed=3)
        r = autos[PROCS[1]].invoke_read()
        kernel.run(80)
        assert autos[PROCS[1]].result_of(r) == ("read", None)

    def test_later_write_wins(self):
        pattern = failure_free(SCOPE)
        autos, kernel = register_kernel(pattern, seed=4)
        w1 = autos[PROCS[0]].invoke_write("first")
        kernel.run(80)
        w2 = autos[PROCS[1]].invoke_write("second")
        kernel.run(80)
        r = autos[PROCS[2]].invoke_read()
        kernel.run(80)
        assert autos[PROCS[2]].result_of(r) == ("read", "second")

    def test_ops_survive_a_crash(self):
        pattern = crash_pattern(SCOPE, {PROCS[2]: 20})
        autos, kernel = register_kernel(pattern, seed=5)
        w = autos[PROCS[0]].invoke_write(99)
        kernel.run(120)
        r = autos[PROCS[1]].invoke_read()
        kernel.run(120)
        assert autos[PROCS[1]].result_of(r) == ("read", 99)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_sequential_write_read_always_linearizes(self, seed):
        pattern = failure_free(SCOPE)
        autos, kernel = register_kernel(pattern, seed=seed)
        w = autos[PROCS[0]].invoke_write(seed)
        kernel.run(100)
        assert autos[PROCS[0]].result_of(w) is not None
        r = autos[PROCS[1]].invoke_read()
        kernel.run(100)
        assert autos[PROCS[1]].result_of(r) == ("read", seed)


def ac_kernel(pattern, proposals, seed=0):
    automata = {p: AdoptCommitAutomaton(p, SCOPE) for p in PROCS}
    for p, value in proposals.items():
        automata[p].propose(value)
    detectors = {
        p: SigmaOracle(pattern.restricted_to(SCOPE), SCOPE) for p in PROCS
    }
    kernel = Kernel(pattern, automata, detectors, seed=seed)
    return automata, kernel


class TestAdoptCommit:
    def test_unanimity_commits(self):
        pattern = failure_free(SCOPE)
        autos, kernel = ac_kernel(pattern, {p: "v" for p in PROCS}, seed=1)
        kernel.run(150)
        for p in PROCS:
            assert autos[p].outcome == (True, "v")

    def test_conflict_never_commits_two_values(self):
        pattern = failure_free(SCOPE)
        proposals = {PROCS[0]: "a", PROCS[1]: "b", PROCS[2]: "a"}
        autos, kernel = ac_kernel(pattern, proposals, seed=2)
        kernel.run(200)
        committed = {
            autos[p].outcome[1]
            for p in PROCS
            if autos[p].outcome and autos[p].outcome[0]
        }
        assert len(committed) <= 1

    def test_commit_forces_agreement_on_value(self):
        """If anyone commits v, every outcome carries v."""
        pattern = failure_free(SCOPE)
        proposals = {PROCS[0]: "a", PROCS[1]: "a", PROCS[2]: "b"}
        autos, kernel = ac_kernel(pattern, proposals, seed=3)
        kernel.run(200)
        outcomes = [autos[p].outcome for p in PROCS if autos[p].outcome]
        committed = [v for ok, v in outcomes if ok]
        if committed:
            assert all(v == committed[0] for _, v in outcomes)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        values=st.lists(
            st.sampled_from(["a", "b"]), min_size=3, max_size=3
        ),
    )
    def test_safety_under_random_schedules(self, seed, values):
        pattern = failure_free(SCOPE)
        proposals = dict(zip(PROCS, values))
        autos, kernel = ac_kernel(pattern, proposals, seed=seed)
        kernel.run(250)
        outcomes = [autos[p].outcome for p in PROCS]
        assert all(o is not None for o in outcomes)
        committed = {v for ok, v in outcomes if ok}
        assert len(committed) <= 1
        if committed:
            value = committed.pop()
            assert all(v == value for _, v in outcomes)
        if len(set(values)) == 1:
            assert all(ok for ok, _ in outcomes)
