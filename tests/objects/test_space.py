"""Tests for the object space: sharing, carriers and step accounting."""

import pytest

from repro.groups import paper_figure1_topology
from repro.model import SpecificationError, make_processes
from repro.objects import ObjectSpace
from repro.objects.space import billing_order

PROCS = make_processes(5)
P1, P2, P3, P4, P5 = PROCS


class Ledger:
    """Collects charges for assertions."""

    def __init__(self):
        self.charges = []
        self.writes = []

    def __call__(self, processes, reason):
        self.writes.append((processes, reason))
        self.charges.extend((process, reason) for process in processes)

    def charged(self):
        return {p for p, _ in self.charges}


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
    assert space.consensus_objects_used() == 2


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


def test_stats_reporting(fig1):
    space = ObjectSpace()
    g1, g3 = fig1.group("g1"), fig1.group("g3")
    log = space.intersection_log(g1, g3)
    log.append(P1, "x")
    stats = space.intersection_log_stats()
    assert stats[log.name] == (1, 0)
