"""Cross-commit pins for the two stamp-order comparator protocols.

``SpanningTreeMulticast`` (§7) and ``PartitionedMulticast`` both finalise
one stamp per message and deliver in stamp order once no conflicting
message can still stamp lower.  Each pin is the sha256 over a seeded grid
of runs — rounds executed, the final clock, every delivery event and the
per-process step counts — recorded before the two protocols shared one
delivery routine on ``BaselineMulticast``.  A change that moves any
delivery, round or step of either protocol fails here.

A pin that must move (a deliberate protocol change) is re-recorded with
``PYTHONPATH=src python tests/baselines/test_stamp_order_pins.py``.
"""

from __future__ import annotations

import random

from repro.baselines.partitioned import PartitionedMulticast
from repro.baselines.spanning_tree import SpanningTreeMulticast
from repro.groups.topology import paper_figure1_topology, topology_from_indices
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices
from repro.workloads.runner import random_sends
from repro.workloads.topologies import (
    chain_topology,
    disjoint_topology,
    hub_topology,
    ring_topology,
)
from tests.runtime._scenarios import canonical_hash

TREE_TOPOLOGIES = (
    paper_figure1_topology,
    lambda: ring_topology(5),
    lambda: chain_topology(4),
    lambda: hub_topology(4),
    lambda: disjoint_topology(3, group_size=2),
)
BUDGETS = (3, 50, 200)

#: (topology, partitions) — disjoint groups as their own partitions, groups
#: split into several partitions, and two groups sharing one partition.
PARTITIONINGS = (
    (
        lambda: disjoint_topology(3, group_size=2),
        ((1, 2), (3, 4), (5, 6)),
    ),
    (
        lambda: disjoint_topology(2, group_size=3),
        ((1,), (2, 3), (4, 5), (6,)),
    ),
    (
        lambda: topology_from_indices(4, {"g": [1, 2, 3], "h": [2, 3, 4]}),
        ((1,), (2, 3), (4,)),
    ),
)


def fingerprint(protocol, rounds):
    record = protocol.record
    return {
        "rounds": rounds,
        "clock": protocol.time,
        "deliveries": [
            [e.time, e.process.name, str(e.message.mid)] for e in record.deliveries
        ],
        "steps": sorted(
            [p.name, count] for p, count in record.step_counts().items()
        ),
    }


def drive(protocol, topology, seed, budget):
    """Issue a seeded send script round by round, then run to ``budget``."""
    procs = {p.index: p for p in topology.processes}
    sends = sorted(
        random_sends(topology, 8, seed=seed), key=lambda send: send.at_round
    )
    for send in sends:
        while protocol.time < send.at_round:
            protocol.tick()
        sender = procs[send.sender]
        if protocol.pattern.is_alive(sender, protocol.time):
            protocol.multicast(sender, send.group)
    return protocol, protocol.run(budget)


def grid_hash(runs):
    return canonical_hash([fingerprint(protocol, rounds) for protocol, rounds in runs])


def spanning_tree_runs():
    runs = []
    for i in range(100):
        topology = TREE_TOPOLOGIES[i % len(TREE_TOPOLOGIES)]()
        rng = random.Random(i)
        pattern = failure_free(topology.processes)
        if i % 3 == 0:
            victim = rng.choice(sorted(topology.processes))
            pattern = crash_pattern(topology.processes, {victim: rng.randint(1, 6)})
        budget = BUDGETS[(i // len(TREE_TOPOLOGIES)) % len(BUDGETS)]
        protocol = SpanningTreeMulticast(topology, pattern, seed=i)
        runs.append(drive(protocol, topology, i, budget))
    return runs


def partitioned_runs():
    runs = []
    for factory, indices in PARTITIONINGS:
        partitions = [by_indices(*part) for part in indices]
        for crash in ("none", "member", "partition"):
            for seed in range(6):
                topology = factory()
                rng = random.Random(seed)
                crashes = {}
                if crash == "member":
                    crashes = {rng.choice(sorted(topology.processes)): rng.randint(1, 6)}
                elif crash == "partition":
                    at = rng.randint(1, 6)
                    crashes = {p: at for p in rng.choice(partitions)}
                pattern = crash_pattern(topology.processes, crashes)
                protocol = PartitionedMulticast(topology, pattern, partitions, seed)
                runs.append(drive(protocol, topology, seed, 200))
    return runs


#: Recorded at the commit before the stamp-order delivery was shared.
PINS = {
    "spanning_tree": "8c24775abcd7c47ac3f3a922783bfdd17f4293d36531a513f774b6699c158fb3",
    "partitioned": "bea816da619c38a9917fa5477f088cd64271117333862a0e5289072d1b0a9950",
}


def test_spanning_tree_matches_parent_commit():
    assert grid_hash(spanning_tree_runs()) == PINS["spanning_tree"]


def test_partitioned_matches_parent_commit():
    assert grid_hash(partitioned_runs()) == PINS["partitioned"]


def test_the_grids_deliver_and_block():
    # The pins are only worth what the grids reach: every tree run
    # delivers, and a whole-partition crash leaves messages blocked.
    assert all(protocol.record.deliveries for protocol, _ in spanning_tree_runs())
    blocked = [len(protocol.blocked_messages()) for protocol, _ in partitioned_runs()]
    assert blocked[:6] == [0] * 6 and any(blocked)


if __name__ == "__main__":
    print(f'    "spanning_tree": "{grid_hash(spanning_tree_runs())}",')
    print(f'    "partitioned": "{grid_hash(partitioned_runs())}",')
