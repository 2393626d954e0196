"""Ordering is decided on a sparse graph; these tests hold it to the
definition (``_oracle.py``), count its edges, and pin a caught violation.

Three guards, one per way the sparse graph could go wrong:

* *differential* — on generated records the graph is a subset of the
  dense relation with the same cycles (and ``~>`` by bisection is the
  dense ``~>`` exactly);
* *scaling* — the edge count is bounded by the deliveries, counted not
  timed;
* *caught violation* — a run known to violate Ordering still does, so a
  graph pruned too far cannot pass by reporting nothing.
"""

import random

from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.model import (
    MessageFactory,
    RunRecord,
    failure_free,
    make_processes,
    pset,
)
from repro.props import (
    check_ordering,
    check_strict_ordering,
    delivery_order_graph,
    find_cycle,
    realtime_edges,
)
from repro.workloads import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from tests.props import _oracle

RECORDS = 12_000


def random_record(rng: random.Random) -> RunRecord:
    """A small record with overlapping groups, partial delivery, and now
    and then a duplicate delivery, a non-member delivery, a message
    delivered but never multicast or multicast but never delivered."""
    procs = make_processes(rng.randint(2, 6))
    record = RunRecord(pset(procs), failure_free(pset(procs)))
    factory = MessageFactory()
    groups = [
        rng.sample(procs, rng.randint(1, len(procs)))
        for _ in range(rng.randint(1, 4))
    ]
    messages = []
    for _ in range(rng.randint(1, 7)):
        dst = rng.choice(groups)
        messages.append(factory.multicast(rng.choice(dst), dst))
    for m in messages:
        if rng.random() < 0.9:
            record.note_multicast(rng.randint(0, 12), m.src, m)
    # Mostly-agreeing processes: each one perturbs a common order a
    # little, so cyclic and acyclic records both stay frequent.
    for p in procs:
        order = [m for m in messages if p in m.dst and rng.random() < 0.8]
        if len(order) > 1 and rng.random() < 0.25:
            i, j = rng.sample(range(len(order)), 2)
            order[i], order[j] = order[j], order[i]
        if order and rng.random() < 0.1:
            order.insert(rng.randrange(len(order) + 1), rng.choice(order))
        if rng.random() < 0.1:
            order.insert(rng.randrange(len(order) + 1), rng.choice(messages))
        clock = rng.randint(0, 6)
        for m in order:
            clock += rng.randint(0, 3)
            record.note_delivery(clock, p, m)
    return record


def test_sparse_graph_agrees_with_the_dense_relation_on_generated_records():
    rng = random.Random(20220725)
    cyclic = 0
    for _ in range(RECORDS):
        record = random_record(rng)
        dense = _oracle.local_delivery_edges(record)
        sparse = delivery_order_graph(record)
        assert sparse <= dense
        cycle = find_cycle(sparse)
        assert (cycle is None) == (find_cycle(dense) is None)
        if cycle is not None:
            cyclic += 1
            assert cycle[0] == cycle[-1]
            assert set(zip(cycle, cycle[1:])) <= dense
        assert (check_ordering(record) == []) == (cycle is None)

        realtime = realtime_edges(record)
        assert realtime == _oracle.realtime_edges(record)
        assert (check_strict_ordering(record) == []) == (
            find_cycle(dense | realtime) is None
        )
    print(f"{cyclic} of {RECORDS} generated records were cyclic")
    # A generator that drifts to one side would make the agreement above
    # vacuous.
    assert RECORDS // 3 <= cyclic <= 2 * RECORDS // 3, cyclic


def wide_disjoint_record(groups=40, size=5, waves=25) -> RunRecord:
    """``kernel-wide``'s shape: every group delivers its own waves in
    order, except that one member of each group misses the last wave."""
    procs = make_processes(groups * size)
    record = RunRecord(pset(procs), failure_free(pset(procs)))
    factory = MessageFactory()
    for wave in range(waves):
        for g in range(groups):
            members = procs[g * size : (g + 1) * size]
            m = factory.multicast(members[0], members)
            record.note_multicast(wave, members[0], m)
            last = wave == waves - 1
            for p in members[1:] if last else members:
                record.note_delivery(wave + 1, p, m)
    return record


def test_edge_count_is_bounded_by_the_deliveries_not_their_square():
    record = wide_disjoint_record()
    undelivered = sum(
        len(m.dst - record.delivered_by(m))
        for m in record.delivered_messages()
    )
    assert (len(record.deliveries), undelivered) == (4960, 40)
    graph = delivery_order_graph(record)
    assert len(graph) <= len(record.deliveries) + undelivered
    # One chain per group, shared by its members: the dense relation
    # holds 40 * C(25, 2) = 12 000 pairs on this record.
    assert len(graph) == 40 * 24
    assert check_ordering(record) == []


def test_known_ordering_violation_is_still_caught():
    """benchmarks/e2e/README.md, "Known at baseline": figure1/engine under
    ``random_plan(4, "recovery")`` at schedule seed 82."""
    topology = paper_figure1_topology()
    groups = sorted(topology.groups, key=lambda g: g.name)
    sends = []
    for i in range(12):
        group = groups[i % len(groups)]
        members = sorted(group.members)
        sends.append(
            Send(
                members[i % len(members)].index,
                group.name,
                at_round=1 + i // 2,
            )
        )
    captured = TopologySpec.capture(topology)
    spec = ScenarioSpec(
        topology=captured,
        sends=tuple(sends),
        seed=82,
        faults=random_plan(
            4,
            "recovery",
            process_count=captured.process_count,
            groups=tuple(name for name, _ in captured.groups),
        ),
    )
    assert spec.spec_hash().startswith("a653af6037821f9c")
    assert run_scenario(spec).verdicts()["ordering"] == 1
