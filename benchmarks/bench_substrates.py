"""E8 — the message-passing substrates of §4.3.

* consensus from ``Omega ∧ Sigma``: rounds to decision vs group size and
  crash fraction (expected: small constants; crashes add the failover
  delay of the ``Omega`` stabilization);
* the consensus-based replicated log: rounds per appended entry;
* the contention-free fast path (Proposition 47, ablation #2 of
  DESIGN.md): uncontended intersection-log operations stay on the
  adopt–commit fast path and charge only ``g∩h``; racing operations fall
  back to the hosted consensus and charge the host group.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.core import MulticastSystem
from repro.groups import topology_from_indices
from repro.metrics import format_table
from repro.model import crash_pattern, failure_free, make_processes, pset
from repro.sim import Kernel
from repro.substrates import ConsensusCluster, ReplicatedLogCluster
from repro.workloads import ScenarioSpec, random_sends, run_scenario, ring_topology

CONSENSUS_ROWS = []
LOG_ROWS = []


def teardown_module(module):
    print("\n\nE8a - consensus from Omega ∧ Sigma:")
    print(
        format_table(
            ("group size", "crashes", "rounds to decision"), CONSENSUS_ROWS
        )
    )
    print("\nE8b - replicated log (universal construction):")
    print(format_table(("entries", "rounds", "rounds/entry"), LOG_ROWS))


@pytest.mark.parametrize("size,crashes", [(3, 0), (5, 0), (5, 1), (5, 2)])
def test_consensus_rounds_to_decision(benchmark, size, crashes):
    procs = make_processes(size)
    scope = pset(procs)
    # Round 6 is inside the leader's accept phase (a failure-free
    # decision takes 9 rounds on 5 members), so the crash rows measure
    # the failover, not a decision that beat the crash.
    crash_times = {procs[i]: 6 for i in range(crashes)}
    pattern = crash_pattern(scope, crash_times)

    def decide():
        cluster = ConsensusCluster(pattern, scope)
        for p in procs:
            cluster.propose(p, f"v{p.index}")
        kernel = Kernel(pattern, cluster.automata, cluster.detectors, seed=size)
        rounds = kernel.run(
            500,
            stop_when=lambda: cluster.decided_everywhere(pattern.correct),
        )
        decisions = {cluster.decision_at(p) for p in pattern.correct}
        assert len(decisions) == 1
        return rounds

    rounds = run_once(benchmark, decide)
    CONSENSUS_ROWS.append((size, crashes, rounds))


@pytest.mark.parametrize("entries", [1, 3, 5])
def test_replicated_log_throughput(benchmark, entries):
    procs = make_processes(3)
    scope = pset(procs)
    pattern = failure_free(scope)

    def replicate():
        cluster = ReplicatedLogCluster(pattern, scope)
        for i in range(entries):
            cluster.append(procs[i % 3], f"entry-{i}")
        kernel = Kernel(pattern, cluster.automata, cluster.detectors, seed=entries)
        rounds = kernel.run(
            1500,
            stop_when=lambda: all(
                len(cluster.applied_at(p)) >= entries for p in procs
            ),
        )
        sequences = {cluster.applied_at(p) for p in procs}
        assert len(sequences) == 1
        return rounds

    rounds = run_once(benchmark, replicate)
    LOG_ROWS.append((entries, rounds, rounds / entries))


def test_fast_path_dominates_uncontended_runs(benchmark):
    """Proposition 47 at system level: a group-sequential workload keeps
    every intersection log on the adopt–commit fast path."""
    topo = ring_topology(4)
    procs = make_processes(4)

    spec = ScenarioSpec.capture(
        topo,
        failure_free(pset(procs)),
        random_sends(topo, 8, seed=5),
        seed=5,
    )

    def scenario():
        return run_scenario(spec).system.space.intersection_log_stats()

    stats = run_once(benchmark, scenario)
    total_fast = sum(fast for fast, _ in stats.values())
    total_slow = sum(slow for _, slow in stats.values())
    assert total_fast > 0
    # The overwhelming majority of intersection-log operations must stay
    # on the fast path (slow ops only appear under racing schedules).
    assert total_slow <= total_fast // 4
    print(
        f"\nE8c - Prop. 47 fast path: {total_fast} fast vs "
        f"{total_slow} slow intersection-log ops"
    )


def test_slow_path_costs_the_host_group(benchmark):
    """Ablation #2: forcing contention shows the fast path's value —
    slow-path operations charge the whole host group."""
    topo = topology_from_indices(4, {"g1": [1, 2, 3], "g2": [2, 3, 4]})
    procs = make_processes(4)

    def scenario():
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=6)
        g1, g2 = topo.group("g1"), topo.group("g2")
        ilog = system.space.intersection_log(g1, g2)
        before = len(system.record.steps)
        # Uncontended op: fast, charges only g1∩g2 = {p2, p3}.
        ilog.append(procs[1], "fast-op")
        fast_cost = len(system.record.steps) - before
        # Forced contention: p3's cursor disagrees with the established
        # order, so its op runs the hosted consensus.
        ilog._established.append(("append", "phantom"))
        before = len(system.record.steps)
        ilog.append(procs[2], "slow-op")
        slow_cost = len(system.record.steps) - before
        return fast_cost, slow_cost

    fast_cost, slow_cost = run_once(benchmark, scenario)
    assert fast_cost == 2  # |g1∩g2|
    assert slow_cost == 3  # |host group g1|
