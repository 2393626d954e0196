"""Tests for failure patterns and environments (Appendix A)."""

import pytest
from hypothesis import given, strategies as st

from repro.model import (
    Environment,
    FailurePattern,
    ModelError,
    all_patterns_environment,
    by_indices,
    crash_pattern,
    failure_free,
    make_processes,
    pset,
)

PROCS = make_processes(4)
ALL = pset(PROCS)
P1, P2, P3, P4 = PROCS


class TestFailurePattern:
    def test_failure_free_has_no_faulty_process(self):
        pattern = failure_free(ALL)
        assert pattern.faulty == frozenset()
        assert pattern.correct == ALL
        assert pattern.at(100) == frozenset()

    def test_crashes_are_monotone(self):
        pattern = crash_pattern(ALL, {P2: 5, P3: 10})
        assert pattern.at(0) == frozenset()
        assert pattern.at(5) == {P2}
        assert pattern.at(9) == {P2}
        assert pattern.at(10) == {P2, P3}
        assert pattern.at(10**6) == {P2, P3}

    def test_faulty_and_correct_partition_the_system(self):
        pattern = crash_pattern(ALL, {P1: 0})
        assert pattern.faulty == {P1}
        assert pattern.correct == {P2, P3, P4}
        assert pattern.faulty | pattern.correct == ALL

    def test_is_alive_respects_crash_time(self):
        pattern = crash_pattern(ALL, {P2: 7})
        assert pattern.is_alive(P2, 6)
        assert not pattern.is_alive(P2, 7)
        assert pattern.is_alive(P1, 10**9)

    def test_set_faultiness_of_group_intersection(self):
        pattern = crash_pattern(ALL, {P1: 3, P2: 8})
        group = by_indices(1, 2)
        assert not pattern.set_faulty_at(group, 7)
        assert pattern.set_faulty_at(group, 8)
        assert pattern.crash_time_of_set(group) == 8
        assert pattern.crash_time_of_set(by_indices(1, 3)) is None

    def test_empty_set_is_vacuously_faulty(self):
        pattern = failure_free(ALL)
        assert pattern.set_faulty_at(frozenset(), 0)
        assert pattern.crash_time_of_set(frozenset()) == 0

    def test_restriction_drops_outside_processes(self):
        pattern = crash_pattern(ALL, {P1: 1, P3: 2})
        sub = pattern.restricted_to(by_indices(1, 2))
        assert sub.processes == by_indices(1, 2)
        assert sub.faulty == {P1}

    def test_with_crash_keeps_earliest_time(self):
        pattern = crash_pattern(ALL, {P1: 10})
        earlier = pattern.with_crash(P1, 4)
        assert earlier.crash_times[P1] == 4
        later = pattern.with_crash(P1, 20)
        assert later.crash_times[P1] == 10

    def test_with_crash_unknown_process_is_rejected(self):
        pattern = failure_free(by_indices(1, 2))
        with pytest.raises(ModelError):
            pattern.with_crash(P4, 0)

    def test_crash_time_for_unknown_process_is_rejected(self):
        with pytest.raises(ModelError):
            FailurePattern(by_indices(1, 2), {P4: 0})

    def test_negative_crash_time_is_rejected(self):
        with pytest.raises(ModelError):
            FailurePattern(ALL, {P1: -1})

    @given(
        st.dictionaries(
            st.sampled_from(PROCS), st.integers(min_value=0, max_value=50),
            max_size=4,
        ),
        st.integers(min_value=0, max_value=60),
    )
    def test_property_at_is_monotone(self, crashes, t):
        pattern = crash_pattern(ALL, crashes)
        assert pattern.at(t) <= pattern.at(t + 1)
        assert pattern.at(t) <= pattern.faulty


class TestEnvironment:
    def test_all_patterns_environment_accepts_everything(self):
        env = all_patterns_environment(ALL)
        assert env.contains(failure_free(ALL))
        assert env.contains(crash_pattern(ALL, {p: 0 for p in PROCS}))

    def test_max_failures_bound_is_enforced(self):
        env = Environment(ALL, max_failures=1)
        assert env.contains(crash_pattern(ALL, {P1: 0}))
        assert not env.contains(crash_pattern(ALL, {P1: 0, P2: 0}))

    def test_reliable_processes_never_fail(self):
        env = Environment(ALL, max_failures=4, reliable=by_indices(2))
        assert not env.contains(crash_pattern(ALL, {P2: 0}))
        assert env.contains(crash_pattern(ALL, {P1: 0}))

    def test_failure_prone_respects_reliability_and_bound(self):
        env = Environment(ALL, max_failures=2, reliable=by_indices(4))
        assert env.failure_prone(by_indices(1, 2))
        assert not env.failure_prone(by_indices(1, 2, 3))
        assert not env.failure_prone(by_indices(1, 4))

    def test_pattern_enumeration_starts_failure_free(self):
        env = Environment(ALL, max_failures=1)
        patterns = list(env.patterns())
        assert patterns[0].faulty == frozenset()
        faulty_sets = {p.faulty for p in patterns[1:]}
        assert faulty_sets == {frozenset({p}) for p in PROCS}

    def test_pattern_enumeration_with_explicit_subsets(self):
        env = all_patterns_environment(ALL)
        subsets = [by_indices(1, 2)]
        patterns = list(env.patterns(start=3, subsets=subsets))
        assert len(patterns) == 2
        assert patterns[1].faulty == by_indices(1, 2)
        assert patterns[1].crash_times[P1] == 3


class TestStaggeredPatterns:
    def test_starts_failure_free(self):
        env = Environment(ALL, max_failures=2)
        patterns = list(env.patterns(gap=1))
        assert patterns[0].faulty == frozenset()

    def test_members_crash_gap_rounds_apart_in_process_order(self):
        env = all_patterns_environment(ALL)
        patterns = list(
            env.patterns(start=4, gap=3, subsets=[by_indices(1, 2, 3)])
        )
        assert len(patterns) == 2
        staggered = patterns[1]
        assert staggered.crash_times[P1] == 4
        assert staggered.crash_times[P2] == 7
        assert staggered.crash_times[P3] == 10

    def test_zero_gap_degenerates_to_simultaneous(self):
        env = all_patterns_environment(ALL)
        subsets = [by_indices(1, 2)]
        _, simultaneous = env.patterns(start=5, gap=0, subsets=subsets)
        assert simultaneous.crash_times == {P1: 5, P2: 5}

    def test_same_faulty_sets_as_simultaneous_enumeration(self):
        env = Environment(ALL, max_failures=2, reliable=by_indices(4))
        staggered = {p.faulty for p in env.patterns(gap=1)}
        simultaneous = {p.faulty for p in env.patterns()}
        assert staggered == simultaneous

    def test_out_of_environment_subsets_are_skipped(self):
        env = Environment(ALL, max_failures=1)
        patterns = list(
            env.patterns(gap=1, subsets=[by_indices(1, 2), by_indices(3)])
        )
        assert [p.faulty for p in patterns[1:]] == [by_indices(3)]

    def test_patterns_stay_monotone(self):
        env = all_patterns_environment(ALL)
        for pattern in env.patterns(start=2, gap=2):
            for t in range(12):
                assert pattern.at(t) <= pattern.at(t + 1)

    def test_negative_parameters_are_rejected(self):
        env = all_patterns_environment(ALL)
        with pytest.raises(ModelError):
            list(env.patterns(start=-1))
        with pytest.raises(ModelError):
            list(env.patterns(gap=-1))
