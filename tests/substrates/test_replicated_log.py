"""Tests for the consensus-based replicated log (universal construction)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.plan import FaultEvent, FaultPlan
from repro.model import crash_pattern, failure_free, make_processes, pset
from repro.sim import Kernel
from repro.substrates import ReplicatedLogAutomaton, ReplicatedLogCluster
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

PROCS = make_processes(3)
SCOPE = pset(PROCS)


def run_log(pattern, appends, seed, rounds=600):
    """``appends``: list of (process, value) issued before the run."""
    cluster = ReplicatedLogCluster(pattern, SCOPE)
    for p, value in appends:
        cluster.append(p, value)
    kernel = Kernel(pattern, cluster.automata, cluster.detectors, seed=seed)
    total = len(appends)
    kernel.run(
        rounds,
        stop_when=lambda: all(
            len(cluster.applied_at(p)) >= total for p in pattern.correct
        ),
    )
    return cluster


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"supersede": "bogus"}, "unknown supersede policy 'bogus'"),
        ({"retransmit_interval": 0}, "retransmit_interval must be >= 1 round"),
    ],
)
def test_bad_policy_arguments_fail_at_construction(bad, message):
    """Not at the first slot, i.e. inside ``Kernel.step_process`` mid-run."""
    with pytest.raises(ValueError, match=message):
        ReplicatedLogAutomaton(PROCS[0], SCOPE, **bad)
    with pytest.raises(ValueError, match=message):
        ReplicatedLogCluster(failure_free(SCOPE), SCOPE, **bad)


def test_single_append_replicates_everywhere():
    cluster = run_log(failure_free(SCOPE), [(PROCS[0], "a")], seed=1)
    for p in PROCS:
        assert cluster.applied_at(p) == ("a",)


def test_replicas_agree_on_a_total_order():
    appends = [(PROCS[0], "a"), (PROCS[1], "b"), (PROCS[2], "c")]
    cluster = run_log(failure_free(SCOPE), appends, seed=2)
    sequences = {cluster.applied_at(p) for p in PROCS}
    assert len(sequences) == 1
    assert set(sequences.pop()) == {"a", "b", "c"}


def test_every_append_by_a_correct_process_is_applied():
    appends = [(PROCS[1], f"x{i}") for i in range(4)]
    cluster = run_log(failure_free(SCOPE), appends, seed=3, rounds=900)
    for p in PROCS:
        assert set(cluster.applied_at(p)) == {f"x{i}" for i in range(4)}


def test_crash_of_a_replica_does_not_fork_the_log():
    pattern = crash_pattern(SCOPE, {PROCS[2]: 30})
    appends = [(PROCS[0], "a"), (PROCS[1], "b")]
    cluster = run_log(pattern, appends, seed=4, rounds=900)
    survivors = sorted(pattern.correct)
    seq0 = cluster.applied_at(survivors[0])
    seq1 = cluster.applied_at(survivors[1])
    assert seq0 == seq1
    assert set(seq0) == {"a", "b"}
    # The crashed replica's prefix is consistent with the survivors.
    dead_seq = cluster.applied_at(PROCS[2])
    assert dead_seq == seq0[: len(dead_seq)]


def test_rejoined_replica_catches_up_on_decisions_made_before_its_crash():
    """Regression: the laggard catch-up hole (explore-soak audit, 2026-08).

    A decision can complete just *before* a replica's crash — the
    victim's promise and accept already counted toward the quorum — so
    its DECIDE datagram is dropped with the crash while every peer
    reaches phase ``done`` and goes idle.  Nobody re-sends (proposer
    retransmission only fires on incomplete quorums), and without the
    rejoin CATCHUP exchange the recovered replica waits on the slot
    forever: this exact spec burned its full 240-round budget with a
    termination violation.  With the exchange, it terminates cleanly.
    """
    topo = TopologySpec.capture(disjoint_topology(2, group_size=3))
    plan = FaultPlan(
        (FaultEvent(kind="crash_recover", start=7, until=12, targets=(5,)),)
    )
    spec = ScenarioSpec(
        topology=topo,
        sends=(Send(1, "g1", 0), Send(4, "g2", 0)),
        backend="kernel",
        max_rounds=240,
        seed=18154,
        faults=plan,
    )
    result = run_scenario(spec)
    result.assert_ok()
    row = result.to_row()
    assert not row["truncated"]
    assert row["verdicts"]["termination"] == 0
    # The run resolves promptly (17 rounds when pinned) rather than
    # riding the 240-round budget the way the unfixed laggard did.
    assert row["rounds"] < 60


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_schedules_preserve_prefix_consistency(seed):
    appends = [(PROCS[seed % 3], "m1"), (PROCS[(seed + 1) % 3], "m2")]
    cluster = run_log(failure_free(SCOPE), appends, seed=seed)
    sequences = [cluster.applied_at(p) for p in PROCS]
    shortest = min(sequences, key=len)
    for seq in sequences:
        assert seq[: len(shortest)] == shortest
    assert all(len(seq) == 2 for seq in sequences)
