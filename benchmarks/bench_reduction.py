"""E9 — the Proposition 1 reduction (group-sequential ⇔ vanilla).

The reduction funnels concurrent multicasts through the shared lists
``L_g``, restoring the group-sequential discipline Algorithm 1 needs.
We measure its cost: rounds to quiescence for n concurrent multicasts to
one group, via the reduction (vanilla interface) vs the same n messages
issued group-sequentially by a disciplined client.  Expected shape: the
reduction serializes — rounds grow roughly linearly with n in both modes,
with a constant-factor overhead for the reduction's helping machinery.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.groups.topology import paper_figure1_topology
from repro.metrics.summary import format_table
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok

PROCS = make_processes(5)
ALL = pset(PROCS)
ROWS = []


def teardown_module(module):
    print("\n\nE9 - Prop. 1 reduction cost (n concurrent msgs to g3):")
    print(
        format_table(
            ("n", "vanilla (reduction) rounds", "group-sequential rounds"),
            ROWS,
        )
    )
    vanilla = [row[1] for row in ROWS]
    assert vanilla == sorted(vanilla)  # serialization: monotone in n


def vanilla_rounds(n: int) -> int:
    system = MulticastSystem(paper_figure1_topology(), failure_free(ALL), seed=41)
    amc = AtomicMulticast(system)
    senders = [PROCS[0], PROCS[2], PROCS[3]]
    for i in range(n):
        amc.multicast(senders[i % 3], "g3", payload=i)
    rounds = amc.run(max_rounds=800)
    assert_run_ok(system.record)
    assert len(system.record.local_order(PROCS[0])) == n
    return rounds


def sequential_rounds(n: int) -> int:
    system = MulticastSystem(paper_figure1_topology(), failure_free(ALL), seed=41)
    senders = [PROCS[0], PROCS[2], PROCS[3]]
    rounds = 0
    for i in range(n):
        system.multicast(senders[i % 3], "g3", payload=i)
        rounds += system.run(max_rounds=100)
    assert_run_ok(system.record)
    assert len(system.record.local_order(PROCS[0])) == n
    return rounds


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_reduction_serializes_concurrent_load(benchmark, n):
    vanilla = run_once(benchmark, vanilla_rounds, n)
    sequential = sequential_rounds(n)
    ROWS.append((n, vanilla, sequential))


def test_reduction_helping_survives_sender_crash(benchmark):
    """The reduction's raison d'être under failures: enqueued messages
    of a crashed sender are pushed through by the survivors."""

    def scenario():
        pattern = crash_pattern(ALL, {PROCS[0]: 1})
        system = MulticastSystem(paper_figure1_topology(), pattern, seed=42)
        amc = AtomicMulticast(system)
        doomed = amc.multicast(PROCS[0], "g3", payload="orphan")
        rounds = amc.run()
        return system.record, doomed, rounds

    record, doomed, _rounds = run_once(benchmark, scenario)
    for p in (PROCS[2], PROCS[3]):  # correct members of g3
        assert p in record.delivered_by(doomed)
