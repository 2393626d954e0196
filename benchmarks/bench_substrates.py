"""E8 — the message-passing substrates of §4.3.

* consensus from ``Omega ∧ Sigma``: rounds to decision vs group size and
  crash fraction (expected: small constants; crashes add the failover
  delay of the ``Omega`` stabilization);
* the consensus-based replicated log: rounds per appended entry.

The contention-free fast path (Proposition 47, ablation #2 of DESIGN.md)
is asserted in ``tests/objects/test_space.py``.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.metrics.summary import format_table
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.sim.kernel import Kernel
from repro.substrates.consensus import ConsensusCluster
from repro.substrates.replicated_log import ReplicatedLogCluster

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
