"""Ablation #1 (DESIGN.md §6) — the consensus participation scope.

Algorithm 1's line 20 restricts the bump agreement ``CONS_{m,f}`` to the
groups sharing a *cyclic family* with the destination group.  A naive
alternative widens ``f`` to *all intersecting groups*.  Both are safe
(more agreement can't break ordering), but the paper's scope creates
fewer distinct consensus keys and avoids needless coordination on
acyclic topologies.

We run the same workload under both scopes and report consensus objects
used and total steps.  Expected shape: on acyclic (chain) topologies the
paper's scope collapses every key to the empty family while the widened
scope keys per-neighbourhood; on cyclic (ring) topologies the two
coincide (every intersecting pair shares the ring family).
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.core.algorithm1 import Algorithm1Process
from repro.core.engine import MulticastSystem
from repro.metrics.summary import format_table
from repro.model.failures import failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok
from repro.workloads.runner import Send
from repro.workloads.topologies import chain_topology, ring_topology

ROWS = []


def teardown_module(module):
    print("\n\nAblation 1 - consensus participation scope (line 20):")
    print(
        format_table(
            ("topology", "scope", "consensus keys", "total steps"), ROWS
        )
    )


def widen_scope(system: MulticastSystem) -> None:
    """Patch every process to key consensus by *all* intersecting groups."""

    def wide_family(self: Algorithm1Process, g):
        members = {g.name}
        for h in self.topology.groups:
            if h != g and g.intersects(h):
                members.add(h.name)
        return frozenset(members)

    for process in system.processes.values():
        process._consensus_family = wide_family.__get__(process)


def run_workload(topology, procs, widened: bool):
    system = MulticastSystem(topology, failure_free(pset(procs)), seed=51)
    if widened:
        widen_scope(system)
    for i, group in enumerate(topology.groups):
        sender = sorted(group.members)[0]
        system.multicast(sender, group.name)
        system.run(max_rounds=100)
    assert_run_ok(system.record)
    return (
        system.space.consensus_objects_used(),
        sum(system.record.step_counts().values()),
    )


@pytest.mark.parametrize("widened", [False, True])
def test_chain_topology_scope(benchmark, widened):
    topo = chain_topology(4)
    procs = make_processes(5)
    keys, steps = run_once(benchmark, run_workload, topo, procs, widened)
    ROWS.append(
        ("chain-4", "all-intersecting" if widened else "paper", keys, steps)
    )
    # One message per group; each commit uses one consensus key.
    assert keys == len(topo.groups)


@pytest.mark.parametrize("widened", [False, True])
def test_ring_topology_scope(benchmark, widened):
    topo = ring_topology(4)
    procs = make_processes(4)
    keys, steps = run_once(benchmark, run_workload, topo, procs, widened)
    ROWS.append(
        ("ring-4", "all-intersecting" if widened else "paper", keys, steps)
    )


def test_scopes_agree_on_rings(benchmark):
    """On a ring every intersecting pair shares the (unique) cyclic
    family, so the two scopes compute the same keys."""

    def compute_keys():
        topo = ring_topology(5)
        procs = make_processes(5)
        system = MulticastSystem(topo, failure_free(pset(procs)))
        process = system.processes[procs[0]]
        return topo, process

    topo, process = run_once(benchmark, compute_keys)
    for g in process.my_groups:
        paper_key = process._consensus_family(g)
        wide = {g.name} | {
            h.name for h in topo.groups if h != g and g.intersects(h)
        }
        assert paper_key == frozenset(wide)
