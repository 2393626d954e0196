"""Tests for the object space: sharing, carriers, step accounting and
Proposition 47's fast path."""

import pytest

from repro.core.engine import MulticastSystem
from repro.groups.topology import paper_figure1_topology, topology_from_indices
from repro.model.errors import SpecificationError
from repro.model.failures import failure_free
from repro.model.processes import make_processes
from repro.objects.space import (
    NO_READERS,
    ObjectSpace,
    Sink,
    billing_order,
    reader_set,
)
from repro.workloads.runner import random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec
from repro.workloads.topologies import ring_topology

PROCS = make_processes(5)
P1, P2, P3, P4, P5 = PROCS


class Clock:
    """A sink's clock held at one instant."""

    def __init__(self, time):
        self.time = time


class Ledger(Sink):
    """A recording sink: every charge, and every wake with how many
    charges preceded it.  Every process starts parked."""

    __slots__ = ("wakes",)

    def __init__(self, time=0):
        super().__init__(clock=Clock(time), parked=set(PROCS))
        self.wakes = []
        self.wake_listener = self._woke

    def _woke(self, readers):
        self.wakes.append((len(self.charges), readers))

    @property
    def writes(self):
        """``(billing order, reason)`` per charge."""
        return [(processes, reason) for _, processes, reason in self.charges]

    @property
    def readers(self):
        """Per charge, the readers woken right after it (``NO_READERS``
        when it woke nobody)."""
        woken = dict(self.wakes)
        return [woken.get(n, NO_READERS) for n in range(1, len(self.charges) + 1)]

    def charged(self):
        return {p for _, processes, _ in self.charges for p in processes}


@pytest.fixture()
def fig1():
    return paper_figure1_topology()


def test_group_logs_are_shared_by_key(fig1):
    space = ObjectSpace()
    g1 = fig1.group("g1")
    assert space.group_log(g1) is space.group_log(g1)


def test_intersection_log_same_for_both_orders(fig1):
    space = ObjectSpace()
    g1, g3 = fig1.group("g1"), fig1.group("g3")
    assert space.intersection_log(g1, g3) is space.intersection_log(g3, g1)


def test_intersection_log_of_group_with_itself_is_group_log(fig1):
    space = ObjectSpace()
    g1 = fig1.group("g1")
    assert space.intersection_log(g1, g1) is space.group_log(g1)


def test_disjoint_intersection_log_rejected(fig1):
    space = ObjectSpace()
    with pytest.raises(SpecificationError):
        space.intersection_log(fig1.group("g2"), fig1.group("g4"))


def test_group_log_charges_group_members(fig1):
    ledger = Ledger()
    space = ObjectSpace(ledger)
    g1 = fig1.group("g1")
    space.group_log(g1).append(P1, "m")
    assert ledger.charged() == {P1, P2}


def test_fast_path_charges_only_intersection(fig1):
    ledger = Ledger()
    space = ObjectSpace(ledger)
    g1, g3 = fig1.group("g1"), fig1.group("g3")
    log = space.intersection_log(g1, g3)
    log.append(P1, "m")
    # g1 n g3 = {p1}: only p1 charged on the fast path.
    assert ledger.charged() == {P1}
    assert log.fast_ops == 1 and log.slow_ops == 0


def test_same_order_by_both_processes_stays_fast(fig1):
    ledger = Ledger()
    space = ObjectSpace(ledger)
    g3, g4 = fig1.group("g3"), fig1.group("g4")  # intersection {p1, p4}
    log = space.intersection_log(g3, g4)
    log.append(P1, "a")
    log.append(P1, "b")
    log.append(P4, "a")
    log.append(P4, "b")
    assert log.fast_ops == 4 and log.slow_ops == 0
    assert ledger.charged() == {P1, P4}


def test_out_of_order_ops_fall_back_to_host_group(fig1):
    ledger = Ledger()
    space = ObjectSpace(ledger)
    g3, g4 = fig1.group("g3"), fig1.group("g4")
    log = space.intersection_log(g3, g4)
    log.append(P1, "a")
    log.append(P1, "b")
    log.append(P4, "b")  # contention: P4 sees "b" first
    assert log.slow_ops == 1
    # The slow path charges the host group (smaller name: g3 = {p1,p3,p4}).
    assert ledger.charged() >= set(fig1.group("g3").members)


def test_consensus_objects_keyed_by_message_and_family(fig1):
    space = ObjectSpace()
    g1 = fig1.group("g1")
    a = space.consensus("m1", "famA", g1)
    b = space.consensus("m1", "famA", g1)
    c = space.consensus("m1", "famB", g1)
    assert a is b
    assert a is not c
    assert len(space._consensus) == 2


def test_consensus_propose_charges_host_group(fig1):
    ledger = Ledger()
    space = ObjectSpace(ledger)
    g3 = fig1.group("g3")
    handle = space.consensus("m", "f", g3)
    assert handle.propose(P1, 7) == 7
    assert ledger.charged() == set(g3.members)
    assert handle.decided


def loop_order(caller, scope):
    """The sequence the per-carrier charge loop billed in: the invoker,
    then every other member as the scope iterates."""
    return (caller,) + tuple(c for c in scope if c != caller)


def test_billing_order_equals_the_per_carrier_loop(fig1):
    g3, g4 = fig1.group("g3"), fig1.group("g4")
    for caller in PROCS:
        for scope in (g3.members, g4.members, g3.intersection(g4)):
            assert billing_order(caller, scope) == loop_order(caller, scope)


def test_group_log_bills_one_write_in_loop_order(fig1):
    ledger = Ledger()
    g3 = fig1.group("g3")
    log = ObjectSpace(ledger).group_log(g3)
    log.append(P3, "a")
    log.bump_and_lock(P4, "a", 3)
    log.append(P3, "b")  # memoised order
    assert ledger.writes == [
        (loop_order(P3, g3.members), "LOG_g3.append"),
        (loop_order(P4, g3.members), "LOG_g3.bumpAndLock"),
        (loop_order(P3, g3.members), "LOG_g3.append"),
    ]


@pytest.mark.parametrize("isolation", [False, True])
def test_intersection_log_bills_one_write_per_path_in_loop_order(fig1, isolation):
    ledger = Ledger()
    g3, g4 = fig1.group("g3"), fig1.group("g4")  # g3 ∩ g4 = {p1, p4}
    log = ObjectSpace(ledger, isolation=isolation).intersection_log(g3, g4)
    shared = log.carriers
    slow = shared if isolation else g3.members  # host = smaller name
    log.append(P1, "a")
    log.append(P1, "b")
    log.append(P4, "b")  # contention: P4 sees "b" first
    log.bump_and_lock(P4, "a", 2)  # still behind the established order
    log.append(P4, "c")  # past it: P4 establishes the next operation
    assert (log.fast_ops, log.slow_ops) == (3, 2)
    assert ledger.writes == [
        (loop_order(P1, shared), "LOG_g3∩g4.append[fast]"),
        (loop_order(P1, shared), "LOG_g3∩g4.append[fast]"),
        (loop_order(P4, slow), "LOG_g3∩g4.append[slow]"),
        (loop_order(P4, slow), "LOG_g3∩g4.bumpAndLock[slow]"),
        (loop_order(P4, shared), "LOG_g3∩g4.append[fast]"),
    ]


def test_consensus_bills_one_write_in_loop_order(fig1):
    ledger = Ledger()
    g3 = fig1.group("g3")
    handle = ObjectSpace(ledger).consensus("m", "f", g3)
    handle.propose(P4, 7)
    handle.propose(P1, 9)
    assert ledger.writes == [
        (loop_order(P4, g3.members), "CONS[m,f].propose"),
        (loop_order(P1, g3.members), "CONS[m,f].propose"),
    ]


def test_every_write_hands_the_sink_its_objects_readers(fig1):
    ledger = Ledger()
    space = ObjectSpace(ledger)
    g1, g3, g4 = fig1.group("g1"), fig1.group("g3"), fig1.group("g4")
    space.group_log(g3).append(P3, "a")
    space.intersection_log(g4, g3).append(P1, "a")
    space.group_log(g3).bump_and_lock(P4, "a", 2)
    space.consensus("m", "f", g1).propose(P1, 7)
    assert ledger.readers == [
        reader_set(g3),
        reader_set(g3, g4),
        reader_set(g3),
        NO_READERS,
    ]
    assert ledger.readers[1] == g3.members | g4.members


CONTRACT_CASES = (
    "append new",
    "append present",
    "bump unlocked",
    "bump locked",
    "intersection append fast",
    "intersection append present",
    "intersection append slow",
    "intersection bump fast",
    "intersection bump slow",
    "propose",
)


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_an_operation_is_one_charge_and_one_wake_of_its_readers(fig1, case):
    """Every operation records exactly one charge, stamped by the sink's
    clock, then unparks and wakes exactly its object's readers, once: the
    set the object bound, so they iterate in its order.  A proposal
    wakes nobody.  An append of a present datum and a bump of a locked
    one change nothing in the log and still charge and wake: that is
    where a fast path could stop charging."""
    ledger = Ledger(time=7)
    space = ObjectSpace(ledger)
    g3, g4 = fig1.group("g3"), fig1.group("g4")  # g3 ∩ g4 = {p1, p4}
    log, ilog = space.group_log(g3), space.intersection_log(g3, g4)
    cons = space.consensus("m", "f", g3)
    shared, host = ilog.carriers, g3.members  # host = smaller name
    # case: (setup, operation, object, billing order, reason, result)
    cases = {
        "append new": (
            lambda: None,
            lambda: log.append(P3, "a"),
            log, loop_order(P3, host), "LOG_g3.append", 1,
        ),
        "append present": (
            lambda: (log.append(P4, "a"), log.append(P4, "b")),
            lambda: log.append(P3, "a"),
            log, loop_order(P3, host), "LOG_g3.append", 1,
        ),
        "bump unlocked": (
            lambda: (log.append(P3, "a"), log.append(P3, "b")),
            lambda: log.bump_and_lock(P4, "a", 5),
            log, loop_order(P4, host), "LOG_g3.bumpAndLock", 5,
        ),
        "bump locked": (
            lambda: (log.append(P3, "a"), log.bump_and_lock(P3, "a", 5)),
            lambda: log.bump_and_lock(P4, "a", 9),
            log, loop_order(P4, host), "LOG_g3.bumpAndLock", 5,
        ),
        "intersection append fast": (
            lambda: None,
            lambda: ilog.append(P1, "a"),
            ilog, loop_order(P1, shared), "LOG_g3∩g4.append[fast]", 1,
        ),
        "intersection append present": (
            lambda: ilog.append(P1, "a"),
            lambda: ilog.append(P4, "a"),
            ilog, loop_order(P4, shared), "LOG_g3∩g4.append[fast]", 1,
        ),
        "intersection append slow": (
            lambda: (ilog.append(P1, "a"), ilog.append(P1, "b")),
            lambda: ilog.append(P4, "b"),
            ilog, loop_order(P4, host), "LOG_g3∩g4.append[slow]", 2,
        ),
        "intersection bump fast": (
            lambda: (
                ilog.append(P1, "a"),
                ilog.append(P4, "a"),
                ilog.bump_and_lock(P1, "a", 3),
            ),
            lambda: ilog.bump_and_lock(P4, "a", 3),
            ilog, loop_order(P4, shared), "LOG_g3∩g4.bumpAndLock[fast]", 3,
        ),
        "intersection bump slow": (
            lambda: (
                ilog.append(P1, "a"),
                ilog.append(P4, "a"),
                ilog.bump_and_lock(P1, "a", 3),
            ),
            lambda: ilog.bump_and_lock(P4, "a", 4),
            ilog, loop_order(P4, host), "LOG_g3∩g4.bumpAndLock[slow]", 3,
        ),
        "propose": (
            lambda: cons.propose(P1, 9),
            lambda: cons.propose(P4, 7),
            cons, loop_order(P4, host), "CONS[m,f].propose", 9,
        ),
    }
    setup, operation, handle, order, reason, result = cases[case]
    setup()
    charges, wakes = len(ledger.charges), len(ledger.wakes)
    ledger.parked.update(PROCS)
    assert operation() == result
    assert ledger.charges[charges:] == [(7, order, reason)]
    readers = getattr(handle, "readers", NO_READERS)
    if readers:
        assert ledger.wakes[wakes:] == [(charges + 1, readers)]
        assert ledger.wakes[-1][1] is readers
    else:
        assert ledger.wakes[wakes:] == []
    assert ledger.parked == set(PROCS) - readers


def test_a_refused_operation_charges_nothing_and_wakes_nobody(fig1):
    """A ``bumpAndLock`` of a datum absent from the log is refused before
    it charges a carrier or unparks a reader."""
    ledger = Ledger()
    space = ObjectSpace(ledger)
    g1, g3, g4 = fig1.group("g1"), fig1.group("g3"), fig1.group("g4")
    for log in (space.group_log(g1), space.intersection_log(g3, g4)):
        with pytest.raises(SpecificationError):
            log.bump_and_lock(P1, "ghost", 2)
    assert ledger.charges == []
    assert ledger.wakes == []
    assert ledger.parked == set(PROCS)
    # Nor is it an operation of the caller's sequence: the intersection
    # log counted nothing, and P1's next append, then the same append by
    # another member, keep to the fast path.
    log = space.intersection_log(g3, g4)
    assert (log.fast_ops, log.slow_ops) == (0, 0)
    assert log.would_be_fast(P1, ("append", "x"))
    log.append(P1, "x")
    log.append(P4, "x")
    assert (log.fast_ops, log.slow_ops) == (2, 0)


def test_stats_reporting(fig1):
    space = ObjectSpace()
    g1, g3 = fig1.group("g1"), fig1.group("g3")
    log = space.intersection_log(g1, g3)
    log.append(P1, "x")
    assert (log.fast_ops, log.slow_ops) == (1, 0)


# -- Proposition 47 at system level ------------------------------------------


def test_group_sequential_workload_stays_on_the_fast_path():
    """A group-sequential ring4 workload keeps the intersection logs on
    the fast path: slow ops appear only under racing schedules."""
    topo = ring_topology(4)
    spec = ScenarioSpec.capture(
        topo,
        failure_free(topo.processes),
        random_sends(topo, 8, seed=5),
        seed=5,
    )
    logs = run_scenario(spec).host.space._intersection_logs.values()
    total_fast = sum(log.fast_ops for log in logs)
    total_slow = sum(log.slow_ops for log in logs)
    assert total_fast > 0
    assert total_slow <= total_fast // 4


def test_slow_path_charges_the_host_group_in_a_run():
    """In a running system a fast op charges ``g1∩g2`` (2 steps); an op
    forced off the established order charges the host group (3)."""
    topo = topology_from_indices(4, {"g1": [1, 2, 3], "g2": [2, 3, 4]})
    system = MulticastSystem(topo, failure_free(topo.processes), seed=6)
    ilog = system.space.intersection_log(topo.group("g1"), topo.group("g2"))
    p2, p3 = sorted(topo.processes)[1:3]
    before = sum(system.record.step_counts().values())
    ilog.append(p2, "fast-op")
    assert sum(system.record.step_counts().values()) - before == 2
    # p3's cursor now disagrees with the established order.
    ilog._established.append(("append", "phantom"))
    before = sum(system.record.step_counts().values())
    ilog.append(p3, "slow-op")
    assert sum(system.record.step_counts().values()) - before == 3
