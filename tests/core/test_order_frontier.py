"""Algorithm 1's order waits against their definition, on live runs.

``Algorithm1Process._order_clear`` answers the waits of lines 10/28/36
from a cursor over the settled prefix of the log plus a direct check of
the unsettled tail.  Here every call made during seeded runs is also
evaluated the way the paper writes it — ``PHASE[m'] ≥ T`` for every
``m'`` the sort-and-probe oracle puts before ``m`` — and the two must
agree; the premise the cursor rests on (no write lowers a phase) is
checked on the way.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithm1 import Algorithm1Process
from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.core.phases import COMMIT, DELIVER, STABLE, START, Phase
from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import failure_free
from repro.model.messages import MessageFactory
from repro.model.processes import make_processes, pset
from repro.objects.space import ObjectSpace
from repro.workloads.runner import Send, random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import hub_topology, ring_topology

from ..objects import _oracle

TOPOLOGIES = {
    "figure1": paper_figure1_topology,
    "ring5": lambda: ring_topology(5),
    "hub4": lambda: hub_topology(4),
}

#: The fault axis: spec fields as a function of (topology, seed).
FAULTS = {
    "fault-free": lambda topology, seed: {},
    "static-crash": lambda topology, seed: {
        "crashes": ((1 + seed % len(topology.processes), 5),)
    },
    **{
        mix: lambda topology, seed, mix=mix: {
            "faults": random_plan(
                seed,
                mix,
                process_count=len(topology.processes),
                groups=sorted(g.name for g in topology.groups),
            )
        }
        for mix in ("recovery", "full")
    },
}

BACKENDS = {
    "engine": {},
    "async": {"backend": "async", "delay_model": ("uniform", 0.1, 0.9)},
}


class OrderWaitAudit:
    """What the checked runs saw: outcomes per call, entries visited."""

    def __init__(self):
        self.outcomes = {True: 0, False: 0}
        #: Log entries whose phase an order wait read.
        self.visited = 0
        #: Whether an order wait is running (its ``PHASE`` reads count).
        self.waiting = False
        #: (process, log, threshold) triples that were waited on.
        self.waits = set()


class MonotonePhases(dict):
    """``PHASE`` with the premise of the cursor asserted on every write,
    and the reads an order wait makes — one per entry it visits — counted
    into ``audit``."""

    audit = None

    def __setitem__(self, mid, phase):
        assert phase >= self.get(mid, START), f"PHASE[{mid}] lowered to {phase}"
        super().__setitem__(mid, phase)

    def get(self, mid, default=None):
        if self.audit is not None and self.audit.waiting:
            self.audit.visited += 1
        return super().get(mid, default)


@pytest.fixture
def audit(monkeypatch):
    seen = OrderWaitAudit()
    order_clear = Algorithm1Process._order_clear
    init = Algorithm1Process.__init__

    def checked_order_clear(self, log, m, threshold):
        seen.waiting = True
        try:
            got = order_clear(self, log, m, threshold)
        finally:
            seen.waiting = False
        by_definition = all(
            self.phase_of(earlier) >= threshold
            for earlier in _oracle.messages_before(log, m)
        )
        assert got == by_definition, (self.pid, log.name, m, threshold)
        seen.outcomes[got] += 1
        seen.waits.add((self.pid, log, threshold))
        return got

    def init_with_monotone_phases(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.phase = MonotonePhases()
        self.phase.audit = seen

    monkeypatch.setattr(Algorithm1Process, "_order_clear", checked_order_clear)
    monkeypatch.setattr(Algorithm1Process, "__init__", init_with_monotone_phases)
    return seen


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("variant", ["vanilla", "strict"])
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_order_waits_equal_their_definition(
    audit, topology_name, variant, fault, backend
):
    topology = TOPOLOGIES[topology_name]()
    for seed in (3, 11):
        spec = ScenarioSpec(
            topology=TopologySpec.capture(topology),
            sends=tuple(random_sends(topology, 12, seed=seed, spread_rounds=1)),
            seed=seed,
            variant=variant,
            max_rounds=400,
        )
        spec = replace(spec, **FAULTS[fault](topology, seed), **BACKENDS[backend])
        run_scenario(spec)
    # Not vacuous: the runs both blocked on an order wait and passed one.
    assert audit.outcomes[True] and audit.outcomes[False]


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_order_waits_equal_their_definition_one_action_at_a_time(
    audit, topology_name
):
    """``budget=1``: the finest interleaving of the processes' actions."""
    topology = TOPOLOGIES[topology_name]()
    procs = make_processes(len(topology.processes))
    system = MulticastSystem(topology, failure_free(pset(procs)), seed=5)
    amc = AtomicMulticast(system)
    for send in random_sends(topology, 12, seed=5, spread_rounds=1):
        amc.multicast(procs[send.sender - 1], send.group)
    idle = 0
    while system.time < 3000 and idle < 3:
        fired = system.tick(action_budget=1)
        idle = idle + 1 if fired == 0 else 0
    assert idle == 3, "the run did not quiesce"
    assert audit.outcomes[True] and audit.outcomes[False]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["append", "bump", "raise"]),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=40,
    )
)
def test_order_wait_needs_only_monotone_phases_and_the_log_contract(ops):
    """The predicate on logs and phases Algorithm 1 would never produce.

    In a run, ``PHASE[m'] ≥ commit`` at a process implies it locked
    ``m'`` (line 23), so a cursor that passes only such entries stays
    inside the settled prefix by itself.  The predicate does not lean on
    that: here phases rise on unlocked entries that are bumped behind
    their successors afterwards, and every (message, threshold) is
    queried after every step, which is what bounding the cursor by
    ``settled`` is for.
    """
    topology = paper_figure1_topology()
    (p, *_rest) = sorted(topology.processes)
    system = MulticastSystem(topology, failure_free(topology.processes), seed=0)
    process = system.processes[p]
    g = topology.groups_of(p)[0]
    log = ObjectSpace().group_log(g)
    factory = MessageFactory()
    messages = [factory.multicast(p, g.members) for _ in range(6)]
    for op, index, k in ops:
        m = messages[index]
        if op == "append":
            log.append(p, m)
        elif op == "bump" and m in log:
            log.bump_and_lock(p, m, k)
        elif op == "raise":
            process.phase[m.mid] = max(process.phase_of(m), Phase(k % 5))
        for present in log.messages():
            earlier = _oracle.messages_before(log, present)
            for threshold in (COMMIT, STABLE, DELIVER):
                assert process._order_clear(log, present, threshold) == all(
                    process.phase_of(x) >= threshold for x in earlier
                )


def test_order_waits_visit_each_log_entry_a_bounded_number_of_times(audit):
    """Host-independent scaling guard on a 120-multicast Figure 1 cell.

    A cursor passes each entry of a log once per (process, threshold),
    so the entries all order waits visit stay within a small multiple
    of the logs' sizes (1 953 visits for 1 620 entries here).
    Rescanning the prefix on every call visited 45 686 — 23 a call, and
    93 a call on the benchmark's 480-multicast cell.
    """
    topology = paper_figure1_topology()
    groups = sorted(topology.groups, key=lambda g: g.name)
    sends = []
    for i in range(120):  # round-robin over groups and members, 2 a round
        members = sorted(groups[i % len(groups)].members)
        sends.append(
            Send(
                members[i % len(members)].index,
                groups[i % len(groups)].name,
                at_round=1 + i // 2,
            )
        )
    result = run_scenario(
        ScenarioSpec(
            topology=TopologySpec.capture(topology),
            sends=tuple(sends),
            seed=0,
            max_rounds=1000,
        )
    )
    assert result.delivered_everywhere()
    log_entries = sum(len(log.messages()) for _pid, log, _t in audit.waits)
    calls = audit.outcomes[True] + audit.outcomes[False]
    assert calls > 1000
    assert audit.visited <= 4 * log_entries
