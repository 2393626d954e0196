"""Tests for the consensus-based replicated log (universal construction)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.plan import FaultEvent, FaultPlan
from repro.model import crash_pattern, failure_free, make_processes, pset
from repro.model.messages import MessageBuffer
from repro.sim import Kernel
from repro.sim.kernel import Context
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


# -- A slot decides a batch; a forwarded batch joins the receiver's queue ------

BUSY_LEADER = tuple(Send(1, "g1", at) for at in range(0, 90, 2))
DROPPED_FORWARDS = FaultPlan(
    (FaultEvent(kind="link_drop", src=3, dst=1, start=0, until=6, amount=2),)
)


@pytest.mark.parametrize(
    "faults", [None, DROPPED_FORWARDS], ids=["reliable", "link_drop"]
)
@pytest.mark.parametrize("seed", range(5))
def test_a_forwarded_value_rides_the_next_slot(seed, faults):
    """A non-leader's append is not starved by a busy leader.

    The leader appends every other round for 90 rounds; ``p3`` appends
    once, at round 1.  While a FORWARD was its sender's slot's, it lost
    to the leader's own value slot after slot: ``p3``'s value was applied
    at round 68 / 55 / 98 / 31 / 80 (seeds 0-4).
    """
    topo = TopologySpec.capture(disjoint_topology(1, group_size=5))
    spec = ScenarioSpec(
        topology=topo,
        sends=BUSY_LEADER + (Send(3, "g1", 1),),
        backend="kernel",
        max_rounds=600,
        seed=seed,
        faults=faults,
    )
    result = run_scenario(spec)
    result.assert_ok()
    assert result.delivered_everywhere()
    (forwarded,) = [m for m in result.messages if m.src == PROCS[2]]
    applied_by = max(
        result.record.delivery_time(p, forwarded) for p in forwarded.dst
    )
    assert applied_by <= 20
    if faults is not None:
        assert result.injector.stats["dropped"] >= 1


def test_a_value_that_reached_two_leaders_is_applied_once(wire):
    # Omega rotates until round 9: p2's append is forwarded to whoever
    # leads that round, who queues it — and is proposed again by p1 once
    # p1 is the stable leader and has been forwarded it too.
    topo = TopologySpec.capture(disjoint_topology(1, group_size=3))
    plan = FaultPlan((FaultEvent(kind="omega_late", group="g1", until=9),))
    sends = (Send(2, "g1", 0), Send(1, "g1", 0), Send(1, "g1", 3))
    for seed in range(5):
        del wire[:]
        spec = ScenarioSpec(
            topology=topo, sends=sends, backend="kernel",
            max_rounds=300, seed=seed, faults=plan,
        )
        result = run_scenario(spec)
        result.assert_ok()
        assert result.delivered_everywhere()
        twice = result.messages[0].mid
        forwarded_to = {
            d.dst for d in wire if d.tag == "FORWARD" and twice in d.body[1]
        }
        proposers = {
            d.src for d in wire if d.tag == "ACCEPT" and twice in d.body[2]
        }
        assert PROCS[2] in forwarded_to and PROCS[0] in proposers
        for log in result.kernel.automata.values():
            assert log.applied.count(twice) == 1
            assert sorted(log.applied) == sorted(m.mid for m in result.messages)


def test_a_value_decided_in_two_batches_is_applied_once():
    """At-most-once is the apply loop's, whatever the slots decided."""
    log = ReplicatedLogAutomaton(PROCS[1], SCOPE)
    log.append("x")
    buffer, outputs = MessageBuffer(), []
    sample = {"omega": PROCS[0], "sigma": SCOPE}
    for slot, batch in enumerate([("x", "y"), ("y", "z", "x"), ("z",)]):
        buffer.send(PROCS[0], PROCS[1], "DECIDE", (slot, batch))
        ctx = Context(PROCS[1], slot, sample, buffer, outputs)
        log.on_step(ctx, buffer.receive(PROCS[1]))
    assert log.applied == ["x", "y", "z"]
    assert [out for _, out in outputs if out[0] == "applied"] == [
        ("applied", 0, "x"), ("applied", 1, "y"), ("applied", 2, "z"),
    ]
    assert log.idle() and log.snapshot()["batches"] == [
        ("x", "y"), ("y", "z", "x"), ("z",),
    ]


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
