"""Randomized safety harness: Algorithm 1 under random topologies,
workloads, schedules and crashes must satisfy every §2.2 property plus
Minimality.  This is the executable counterpart of §4.4."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.model.failures import crash_pattern
from repro.model.processes import make_processes, pset
from repro.props.checkers import (
    assert_run_ok,
    check_integrity,
    check_minimality,
    check_ordering,
    check_termination,
)
from repro.workloads.runner import random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec
from repro.workloads.topologies import (
    chain_topology,
    disjoint_topology,
    hub_topology,
    random_topology,
    ring_topology,
)

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def crash_schedule(topology, crash_indices, crash_time):
    procs = sorted(topology.processes)
    crashes = {
        procs[i % len(procs)]: crash_time for i in crash_indices
    }
    return crash_pattern(pset(procs), crashes)


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    topo_seed=st.integers(min_value=0, max_value=50),
    send_count=st.integers(min_value=1, max_value=10),
    crash_indices=st.sets(st.integers(min_value=0, max_value=7), max_size=2),
    crash_time=st.integers(min_value=0, max_value=10),
)
def test_random_topology_runs_satisfy_all_properties(
    seed, topo_seed, send_count, crash_indices, crash_time
):
    topology = random_topology(topo_seed)
    pattern = crash_schedule(topology, crash_indices, crash_time)
    sends = random_sends(topology, send_count, seed=seed)
    result = run_scenario(ScenarioSpec.capture(topology, pattern, sends, seed=seed))
    assert_run_ok(result.record)


@SLOW
@given(
    k=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
    victim=st.integers(min_value=0, max_value=5),
    crash_time=st.integers(min_value=0, max_value=8),
)
def test_ring_runs_satisfy_all_properties(k, seed, victim, crash_time):
    topology = ring_topology(k)
    pattern = crash_schedule(topology, {victim % k}, crash_time)
    sends = random_sends(topology, 8, seed=seed)
    result = run_scenario(ScenarioSpec.capture(topology, pattern, sends, seed=seed))
    assert_run_ok(result.record)


@SLOW
@given(
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_chain_runs_satisfy_all_properties(k, seed):
    topology = chain_topology(k)
    sends = random_sends(topology, 8, seed=seed)
    pattern = crash_schedule(topology, set(), 0)
    result = run_scenario(ScenarioSpec.capture(topology, pattern, sends, seed=seed))
    assert_run_ok(result.record)
    assert result.delivered_everywhere()


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    crash_indices=st.sets(st.integers(min_value=0, max_value=6), max_size=3),
)
def test_hub_runs_with_crashes(seed, crash_indices):
    topology = hub_topology(4)
    pattern = crash_schedule(topology, crash_indices, crash_time=3)
    sends = random_sends(topology, 6, seed=seed)
    result = run_scenario(ScenarioSpec.capture(topology, pattern, sends, seed=seed))
    assert_run_ok(result.record)


@SLOW
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_disjoint_runs_are_embarrassingly_parallel(seed):
    topology = disjoint_topology(3, group_size=2)
    pattern = crash_schedule(topology, set(), 0)
    sends = random_sends(topology, 9, seed=seed)
    result = run_scenario(ScenarioSpec.capture(topology, pattern, sends, seed=seed))
    assert_run_ok(result.record)
    # Only processes of groups that actually received traffic take steps.
    touched = set()
    for m in result.messages:
        touched |= set(m.dst)
    for p in topology.processes:
        if p not in touched:
            assert result.record.steps_of(p) == 0


def test_every_checker_is_exercised_once():
    """Plain (non-hypothesis) smoke covering the checkers individually."""
    topology = ring_topology(4)
    pattern = crash_schedule(topology, {1}, 4)
    sends = random_sends(topology, 6, seed=13)
    result = run_scenario(ScenarioSpec.capture(topology, pattern, sends, seed=13))
    assert check_integrity(result.record) == []
    assert check_termination(result.record) == []
    assert check_ordering(result.record) == []
    assert check_minimality(result.record) == []
