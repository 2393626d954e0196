"""The property checkers must *reject* bad runs — negative tests built
from hand-crafted records."""

import pytest

from repro.model.errors import PropertyViolation
from repro.model.failures import crash_pattern, failure_free
from repro.model.messages import MessageFactory
from repro.model.processes import by_indices, make_processes, pset
from repro.model.runs import RunRecord
from repro.props.checkers import (
    assert_run_ok,
    check_integrity,
    check_minimality,
    check_ordering,
    check_pairwise_ordering,
    check_strict_ordering,
    check_termination,
)
from repro.props.relations import delivery_order_graph, find_cycle

PROCS = make_processes(4)
ALL = pset(PROCS)
P1, P2, P3, P4 = PROCS


def record_with(pattern=None):
    return RunRecord(ALL, pattern or failure_free(ALL)), MessageFactory()


class TestIntegrity:
    def test_duplicate_delivery_detected(self):
        record, factory = record_with()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_multicast(0, P1, m)
        record.note_delivery(1, P1, m)
        record.note_delivery(2, P1, m)
        assert any("twice" in v for v in check_integrity(record))

    def test_delivery_outside_destination_detected(self):
        record, factory = record_with()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_multicast(0, P1, m)
        record.note_delivery(1, P3, m)
        assert any("not in dst" in v for v in check_integrity(record))

    def test_phantom_delivery_detected(self):
        record, factory = record_with()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_delivery(1, P1, m)  # never multicast
        assert any("never multicast" in v for v in check_integrity(record))

    def test_clean_record_passes(self):
        record, factory = record_with()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_multicast(0, P1, m)
        record.note_delivery(1, P1, m)
        record.note_delivery(1, P2, m)
        assert check_integrity(record) == []


class TestTermination:
    def test_missing_delivery_at_correct_member_detected(self):
        record, factory = record_with()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_multicast(0, P1, m)
        record.note_delivery(1, P1, m)  # p2 never delivers
        assert any("p2" in v for v in check_termination(record))

    def test_faulty_members_are_excused(self):
        pattern = crash_pattern(ALL, {P2: 0})
        record = RunRecord(ALL, pattern)
        factory = MessageFactory()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_multicast(0, P1, m)
        record.note_delivery(1, P1, m)
        assert check_termination(record) == []

    def test_message_from_faulty_sender_not_obligated_unless_delivered(self):
        pattern = crash_pattern(ALL, {P1: 5})
        record = RunRecord(ALL, pattern)
        factory = MessageFactory()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_multicast(0, P1, m)
        # Nobody delivered; sender faulty: no obligation.
        assert check_termination(record) == []

    def test_delivered_message_obligates_all_correct_members(self):
        pattern = crash_pattern(ALL, {P1: 5})
        record = RunRecord(ALL, pattern)
        factory = MessageFactory()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_multicast(0, P1, m)
        record.note_delivery(1, P1, m)  # someone delivered
        assert any("p2" in v for v in check_termination(record))


class TestOrdering:
    def test_two_process_inversion_detected(self):
        record, factory = record_with()
        group = by_indices(1, 2)
        a = factory.multicast(P1, group)
        b = factory.multicast(P2, group)
        for m in (a, b):
            record.note_multicast(0, m.src, m)
        record.note_delivery(1, P1, a)
        record.note_delivery(2, P1, b)
        record.note_delivery(1, P2, b)
        record.note_delivery(2, P2, a)
        assert check_ordering(record) != []

    def test_three_group_cycle_detected(self):
        """The cyclic scenario of §4.2: m1 < m2 < m3 < m1 across three
        pairwise intersections."""
        record, factory = record_with()
        g12, g23, g31 = by_indices(1, 2), by_indices(2, 3), by_indices(3, 1)
        m1 = factory.multicast(P1, g12)
        m2 = factory.multicast(P2, g23)
        m3 = factory.multicast(P3, g31)
        for m in (m1, m2, m3):
            record.note_multicast(0, m.src, m)
        # p2 in g12 n g23 delivers m1 then m2; p3 delivers m2 then m3;
        # p1 delivers m3 then m1: a cycle.
        record.note_delivery(1, P2, m1)
        record.note_delivery(2, P2, m2)
        record.note_delivery(1, P3, m2)
        record.note_delivery(2, P3, m3)
        record.note_delivery(1, P1, m3)
        record.note_delivery(2, P1, m1)
        assert check_ordering(record) != []

    def test_delivered_vs_never_delivered_creates_edge(self):
        record, factory = record_with()
        group = by_indices(1, 2)
        a = factory.multicast(P1, group)
        b = factory.multicast(P2, group)
        for m in (a, b):
            record.note_multicast(0, m.src, m)
        record.note_delivery(1, P1, a)  # p1 delivers a, never b
        record.note_delivery(1, P2, b)
        record.note_delivery(2, P2, a)  # p2: b before a
        edges = delivery_order_graph(record)
        assert (a.mid, b.mid) in edges  # from p1's omission
        assert (b.mid, a.mid) in edges  # from p2's order
        assert check_ordering(record) != []

    def test_consistent_orders_pass(self):
        record, factory = record_with()
        group = by_indices(1, 2)
        a = factory.multicast(P1, group)
        b = factory.multicast(P2, group)
        for m in (a, b):
            record.note_multicast(0, m.src, m)
        for p in (P1, P2):
            record.note_delivery(1, p, a)
            record.note_delivery(2, p, b)
        assert check_ordering(record) == []


class TestStrictOrdering:
    def test_realtime_inversion_detected(self):
        """m delivered everywhere before m' is even multicast, yet some
        process delivers m' before m: strict ordering broken."""
        record, factory = record_with()
        g = by_indices(1, 2)
        h = by_indices(2, 3)
        m = factory.multicast(P1, g)
        record.note_multicast(0, P1, m)
        record.note_delivery(1, P1, m)
        m_prime = factory.multicast(P2, h)
        record.note_multicast(5, P2, m_prime)  # after m's delivery
        record.note_delivery(6, P2, m_prime)
        record.note_delivery(7, P2, m)  # p2 delivers m' before m
        assert check_strict_ordering(record) != []
        # Vanilla ordering alone is satisfied: no |-> cycle.
        assert check_ordering(record) == []

    def test_respecting_real_time_passes(self):
        record, factory = record_with()
        g = by_indices(1, 2)
        m = factory.multicast(P1, g)
        record.note_multicast(0, P1, m)
        record.note_delivery(1, P1, m)
        record.note_delivery(1, P2, m)
        m2 = factory.multicast(P2, g)
        record.note_multicast(3, P2, m2)
        record.note_delivery(4, P1, m2)
        record.note_delivery(4, P2, m2)
        assert check_strict_ordering(record) == []


class TestPairwiseOrdering:
    def test_pairwise_violation_detected(self):
        record, factory = record_with()
        group = by_indices(1, 2)
        a = factory.multicast(P1, group)
        b = factory.multicast(P2, group)
        for m in (a, b):
            record.note_multicast(0, m.src, m)
        record.note_delivery(1, P1, a)
        record.note_delivery(2, P1, b)
        record.note_delivery(1, P2, b)  # b without a first
        assert check_pairwise_ordering(record) != []

    def test_every_violation_is_listed_in_loop_order(self):
        record, factory = record_with()
        g123, g23 = by_indices(1, 2, 3), by_indices(2, 3)
        a = factory.multicast(P1, g123)
        b = factory.multicast(P2, g123)
        c = factory.multicast(P3, g23)
        for m in (a, b, c):
            record.note_multicast(0, m.src, m)
        for p, order in ((P1, (a, b)), (P2, (b, c, a)), (P3, (c, b))):
            for time, m in enumerate(order, 1):
                record.note_delivery(time, p, m)
        assert check_pairwise_ordering(record) == [
            "p1 delivered m(p1#1) then m(p2#1) but p2 delivered m(p2#1) "
            "without m(p1#1) first",
            "p1 delivered m(p1#1) then m(p2#1) but p3 delivered m(p2#1) "
            "without m(p1#1) first",
            "p2 delivered m(p2#1) then m(p3#1) but p3 delivered m(p3#1) "
            "without m(p2#1) first",
            "p2 delivered m(p2#1) then m(p1#1) but p1 delivered m(p1#1) "
            "without m(p2#1) first",
            "p3 delivered m(p3#1) then m(p2#1) but p2 delivered m(p2#1) "
            "without m(p3#1) first",
        ]


class TestMinimality:
    def test_uninvolved_stepper_detected(self):
        record, factory = record_with()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_multicast(0, P1, m)
        record.note_step(1, P4)  # p4 is in no destination group
        assert any("p4" in v for v in check_minimality(record))

    def test_faulty_steppers_are_excused(self):
        pattern = crash_pattern(ALL, {P4: 10})
        record = RunRecord(ALL, pattern)
        record.note_step(1, P4)
        assert check_minimality(record) == []


class TestAssertRunOk:
    def test_raises_property_violation_with_name(self):
        record, factory = record_with()
        m = factory.multicast(P1, by_indices(1, 2))
        record.note_delivery(1, P1, m)  # phantom
        with pytest.raises(PropertyViolation) as err:
            assert_run_ok(record)
        assert err.value.prop == "Integrity"


class TestFindCycle:
    def test_self_loop(self):
        assert find_cycle([(1, 1)]) is not None

    def test_long_cycle_is_reported_in_order(self):
        cycle = find_cycle([(1, 2), (2, 3), (3, 1)])
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {1, 2, 3}

    def test_dag_has_no_cycle(self):
        assert find_cycle([(1, 2), (1, 3), (2, 3)]) is None

    def test_empty_graph(self):
        assert find_cycle([]) is None
