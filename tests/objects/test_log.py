"""Tests for the shared log object (§4.3), incl. the paper's base claims."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import SpecificationError
from repro.objects import Log


class TestAppend:
    def test_slots_start_at_one(self):
        log = Log()
        assert log.append("a") == 1
        assert log.append("b") == 2

    def test_append_is_idempotent(self):
        log = Log()
        log.append("a")
        assert log.append("a") == 1
        assert log.append("b") == 2

    def test_pos_of_absent_datum_is_zero(self):
        log = Log()
        assert log.pos("ghost") == 0


class TestBumpAndLock:
    def test_bump_moves_to_max_of_current_and_target(self):
        log = Log()
        log.append("a")  # slot 1
        assert log.bump_and_lock("a", 5) == 5
        assert log.pos("a") == 5

    def test_bump_never_moves_backwards(self):
        log = Log()
        log.append("a")
        log.append("b")  # slot 2
        assert log.bump_and_lock("b", 1) == 2

    def test_locked_datum_cannot_be_bumped_again(self):
        """Claim 5: once locked at position k the datum stays at k."""
        log = Log()
        log.append("a")
        log.bump_and_lock("a", 3)
        assert log.bump_and_lock("a", 9) == 3
        assert log.pos("a") == 3

    def test_lock_is_permanent(self):
        """Claim 4: G(locked(d) => G locked(d))."""
        log = Log()
        log.append("a")
        log.bump_and_lock("a", 1)
        assert log.locked("a")

    def test_bump_absent_datum_raises(self):
        log = Log()
        with pytest.raises(SpecificationError):
            log.bump_and_lock("ghost", 2)

    def test_head_advances_past_bumped_slots(self):
        log = Log()
        log.append("a")
        log.bump_and_lock("a", 7)
        assert log.append("b") == 8

    def test_two_items_may_share_a_slot(self):
        log = Log()
        log.append("a")
        log.append("b")
        log.bump_and_lock("b", 0)  # stays at 2
        log.bump_and_lock("a", 2)  # moves to 2: shared slot
        assert log.pos("a") == log.pos("b") == 2


class TestOrdering:
    def test_slot_order(self):
        log = Log()
        log.append("a")
        log.append("b")
        assert log.precedes("a", "b")
        assert not log.precedes("b", "a")

    def test_tie_break_by_item_order(self):
        log = Log()
        log.append("b")
        log.append("a")
        log.bump_and_lock("a", 1)  # join slot 1... a was at 2, max(1,2)=2
        # a stays at 2: different slots, order by slot.
        assert log.precedes("b", "a")
        # Force a genuine tie instead:
        log2 = Log()
        log2.append("b")  # slot 1
        log2.append("a")  # slot 2
        log2.bump_and_lock("b", 2)  # b joins slot 2
        assert log2.pos("a") == log2.pos("b") == 2
        assert log2.precedes("a", "b")  # tie broken by "a" < "b"

    def test_absent_items_are_incomparable(self):
        log = Log()
        log.append("a")
        assert not log.precedes("a", "ghost")
        assert not log.precedes("ghost", "a")

    def test_membership_is_stable(self):
        """Claim 2: G(d in L => G(d in L))."""
        log = Log()
        log.append("a")
        log.bump_and_lock("a", 10)
        assert "a" in log

    def test_position_only_grows(self):
        """Claim 3: G(pos(d)=k => G(pos(d)>=k))."""
        log = Log()
        log.append("a")
        before = log.pos("a")
        log.bump_and_lock("a", 4)
        assert log.pos("a") >= before

    def test_locked_order_is_stable(self):
        """Claim 6: locking freezes precedence with later items."""
        log = Log()
        log.append("a")
        log.bump_and_lock("a", 1)
        log.append("b")
        assert log.precedes("a", "b")
        log.bump_and_lock("b", 99)
        assert log.precedes("a", "b")

    def test_items_appended_after_a_lock_follow_it(self):
        """Claim 7: if d' is locked and d joins later, d' <_L d."""
        log = Log()
        log.append("x")
        log.bump_and_lock("x", 5)
        log.append("y")  # head is 6
        assert log.precedes("x", "y")


class TestHeterogeneousItems:
    def test_messages_and_records_are_separated(self):
        log = Log()
        log.append("m1")
        log.append(("m1", "g2", 1))
        log.append("m2")
        log.append(("m1", "g2"))
        assert log.messages() == ("m1", "m2")
        assert log.position_records_for("m1") == (("m1", "g2", 1),)
        assert log.stabilization_records_for("m1") == (("m1", "g2"),)
        assert log.records() == (("m1", "g2", 1), ("m1", "g2"))

    def test_messages_before_filters_records(self):
        log = Log()
        log.append("m1")
        log.append(("m1", "g", 1))
        log.append("m2")
        assert log.messages_before("m2") == ("m1",)
        assert log.messages_before("m1") == ()
        # Defined for the messages of the log only.
        assert log.messages_before("ghost") == ()
        assert log.messages_before(("m1", "g", 1)) == ()

    def test_a_bare_message_id_is_a_record_not_a_message(self):
        """Ids are tuples, and tuples are records: a log holds messages
        (and records *headed* by an id), never a bare id as a message."""
        from repro.model import MessageFactory, by_indices, make_processes
        from repro.model.messages import MessageId

        (p1,) = make_processes(1)
        m = MessageFactory().multicast(p1, by_indices(1))
        log = Log()
        log.append(m)
        log.append((m.mid, "g1", 1))
        log.append(MessageId(1, 7))
        assert log.messages() == (m,) and log.arrivals == [m]
        assert MessageId(1, 7) in log.records()
        assert log.messages_before(MessageId(1, 7)) == ()
        assert log.position_records_for(m.mid) == ((m.mid, "g1", 1),)


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["append", "bump"]),
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=40,
        )
    )
    def test_log_invariants_hold_under_random_ops(self, ops):
        """Positions grow, locks are permanent, locked items never move."""
        log = Log()
        positions = {}
        locked_at = {}
        for op, item, k in ops:
            name = f"d{item}"
            if op == "append":
                log.append(name)
            elif name in log:
                log.bump_and_lock(name, k)
            if name in log:
                new_pos = log.pos(name)
                assert new_pos >= positions.get(name, 0)
                positions[name] = new_pos
                if log.locked(name):
                    if name in locked_at:
                        assert new_pos == locked_at[name]
                    locked_at[name] = new_pos

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=25))
    def test_append_order_matches_precedes(self, items):
        log = Log()
        order = []
        for item in items:
            name = f"d{item}"
            if name not in log:
                log.append(name)
                order.append(name)
        for earlier, later in zip(order, order[1:]):
            assert log.precedes(earlier, later)
