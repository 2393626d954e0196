"""Tests for multicast messages, datagrams and the message buffer."""

import copy
import pickle

import pytest

from repro.model.errors import ModelError
from repro.model.messages import (
    MessageBuffer,
    MessageFactory,
    MessageId,
    MulticastMessage,
)
from repro.model.processes import by_indices, make_processes

P1, P2, P3 = make_processes(3)


class TestMulticastMessage:
    def test_factory_mints_unique_ids(self):
        factory = MessageFactory()
        m1 = factory.multicast(P1, by_indices(1, 2))
        m2 = factory.multicast(P1, by_indices(1, 2))
        m3 = factory.multicast(P2, by_indices(2, 3))
        assert len({m1.mid, m2.mid, m3.mid}) == 3

    def test_closed_dissemination_model_enforced(self):
        factory = MessageFactory()
        with pytest.raises(ModelError):
            factory.multicast(P1, by_indices(2, 3))

    def test_message_id_provides_a_priori_total_order(self):
        factory = MessageFactory()
        m1 = factory.multicast(P1, by_indices(1, 2))
        m2 = factory.multicast(P2, by_indices(2, 3))
        assert (m1 < m2) != (m2 < m1)

    def test_message_id_must_match_sender(self):
        with pytest.raises(ModelError):
            MulticastMessage(
                mid=MessageId(sender_index=2, sequence=1),
                src=P1,
                dst=by_indices(1, 2),
            )

    def test_payload_is_carried(self):
        factory = MessageFactory()
        m = factory.multicast(P1, by_indices(1), payload={"op": "put"})
        assert m.payload == {"op": "put"}


class TestIdentityContract:
    """Ids and messages are tuples — two and four fields — hashed and
    compared in C, with the hash values the generated dataclass methods
    used to give."""

    def test_id_hash_is_the_field_tuples_hash(self):
        # Frozen like a golden: these values order sets of ids.
        for sender, sequence in ((1, 1), (2, 7), (200, 480), (3, 10**6)):
            assert hash(MessageId(sender, sequence)) == hash((sender, sequence))

    def test_id_hash_and_comparisons_are_tuples_own(self):
        for dunder in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(MessageId, dunder) is getattr(tuple, dunder), dunder

    def test_id_rendering_and_fields_are_unchanged(self):
        mid = MessageId(sender_index=3, sequence=14)
        assert (repr(mid), str(mid)) == ("m(p3#14)",) * 2
        assert (mid.sender_index, mid.sequence) == (3, 14)

    def test_id_sorting_equals_sorting_by_field_tuples(self):
        ids = [MessageId(a, b) for a, b in ((2, 1), (1, 9), (1, 2), (3, 1), (2, 1))]
        assert sorted(ids) == sorted(ids, key=lambda m: (m.sender_index, m.sequence))
        assert sorted(ids)[0] == MessageId(1, 2)

    def test_id_pickle_and_deepcopy_round_trip(self):
        mid = MessageId(2, 5)
        for clone in (pickle.loads(pickle.dumps(mid)), copy.deepcopy(mid)):
            assert type(clone) is MessageId
            assert clone == mid and hash(clone) == hash(mid)

    def test_message_hash_is_the_four_field_hash(self):
        # Frozen like a golden: these values order sets of messages.
        pinned = MulticastMessage(MessageId(1, 1), P1, by_indices(1, 2), 7)
        assert hash(pinned) == 3564175236656393971
        factory = MessageFactory()
        for m in (
            pinned,
            factory.multicast(P1, by_indices(1, 2), payload="x"),
            factory.multicast(P2, by_indices(1, 2, 3)),
            factory.multicast(P3, by_indices(3), payload=("op", 1)),
        ):
            assert hash(m) == hash((m.mid, m.src, m.dst, m.payload))
            twin = MulticastMessage(m.mid, m.src, m.dst, m.payload)
            assert twin == m and hash(twin) == hash(m)
            assert len({m, twin}) == 1

    def test_message_hash_and_comparisons_are_tuples_own(self):
        for dunder in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(MulticastMessage, dunder) is getattr(tuple, dunder), dunder

    def test_message_equals_the_plain_four_tuple_of_its_fields(self):
        m = MessageFactory().multicast(P1, by_indices(1, 2), payload="x")
        assert m == (m.mid, P1, by_indices(1, 2), "x")
        assert (m.mid, m.src, m.dst, m.payload) == tuple(m)
        assert m != m.mid and m.mid not in {m}

    def test_message_order_is_the_id_order(self):
        factory = MessageFactory()
        ms = [
            factory.multicast(p, by_indices(1, 2, 3), payload=payload)
            for p, payload in ((P2, {"a": 1}), (P1, None), (P3, "z"), (P1, 5))
        ]
        assert sorted(ms) == sorted(ms, key=lambda m: m.mid)

    def test_message_pickle_and_copies_keep_the_type(self):
        m = MessageFactory().multicast(P1, by_indices(1, 2), payload="x")
        hash(m)
        for clone in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert type(clone) is MulticastMessage
            assert clone == m and hash(clone) == hash(m)

    def test_unhashable_payload_constructs_and_raises_only_when_hashed(self):
        m = MessageFactory().multicast(P1, by_indices(1), payload={"op": "put"})
        assert m == MulticastMessage(m.mid, m.src, m.dst, {"op": "put"})
        with pytest.raises(TypeError):
            hash(m)

    def test_both_model_checks_fire_on_construction(self):
        with pytest.raises(ModelError, match="closed dissemination"):
            MulticastMessage(MessageId(1, 1), P1, by_indices(2, 3))
        with pytest.raises(ModelError, match="sender index"):
            MulticastMessage(MessageId(2, 1), P1, by_indices(1, 2))


class TestMessageBuffer:
    def test_send_then_receive_fifo(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A", (1,))
        buff.send(P1, P2, "B", (2,))
        first = buff.receive(P2)
        second = buff.receive(P2)
        assert (first.tag, second.tag) == ("A", "B")

    def test_receive_returns_null_when_empty(self):
        buff = MessageBuffer()
        assert buff.receive(P1) is None

    def test_broadcast_reaches_every_destination(self):
        buff = MessageBuffer()
        buff.broadcast(P1, [P2, P3], "HELLO")
        assert buff.receive(P2).tag == "HELLO"
        assert buff.receive(P3).tag == "HELLO"

    def test_pending_snapshot_does_not_consume(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "X")
        assert len(buff.inbox(P2)) == 1
        assert len(buff.inbox(P2)) == 1
        assert buff.has_pending(P2)

    def test_drop_all_for_crashed_process(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A")
        buff.send(P3, P2, "B")
        assert buff.drop_all_for(P2) == 2
        assert buff.receive(P2) is None

    def test_an_inbox_stays_live_across_drops(self):
        """A held inbox is the buffer's own queue for good: a drop empties
        it in place, and later mail lands in it."""
        buff = MessageBuffer()
        inbox = buff.inbox(P2)
        buff.send(P1, P2, "A")
        assert [d.tag for d in inbox] == ["A"]
        assert buff.drop_all_for(P2) == 1
        assert not inbox
        buff.broadcast(P1, [P2, P3], "B")
        assert [d.tag for d in inbox] == ["B"]
        assert buff.receive(P2).tag == "B" and not inbox

    def test_counters_track_traffic(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A")
        buff.send(P1, P3, "B")
        buff.receive(P2)
        assert buff.sent_count == 2
        assert buff.received_count == 1
        assert [d.tag for queue in buff._pending.values() for d in queue] == ["B"]


class TestDelayedDatagramLifecycle:
    """The delay heap obeys the same crash and accounting rules as
    the visible queues — sequestered traffic is still traffic."""

    @staticmethod
    def delaying_buffer(until=5, amount=3):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultEvent, FaultPlan

        injector = FaultInjector(
            FaultPlan((FaultEvent(kind="link_delay", start=0, until=until, amount=amount),)),
            seed=0,
        )
        buff = MessageBuffer(injector)
        buff.release(0)
        return buff

    def test_drop_all_for_purges_sequestered_datagrams(self):
        buff = self.delaying_buffer()
        buff.send(P1, P2, "DEAD")   # sequestered for P2
        buff.send(P1, P3, "ALIVE")  # sequestered for P3
        buff.send(P3, P2, "DEAD2")  # sequestered for P2
        assert buff.delayed_count() == 3
        assert buff.drop_all_for(P2) == 2  # both sequestered P2 datagrams
        assert buff.delayed_count() == 1
        assert all(d.dst != P2 for _, _, d in buff._delayed)
        # P2 never hears from the purged datagrams, P3's still arrives.
        buff.release(10)
        assert buff.receive(P2) is None
        assert buff.receive(P3).tag == "ALIVE"

    def test_drop_all_for_counts_pending_plus_sequestered(self):
        buff = self.delaying_buffer(until=3, amount=2)
        buff.send(P1, P2, "EARLY")  # sequestered, releases at t=2
        buff.release(2)             # ...now visible
        buff.send(P1, P2, "LATE")   # sequestered again (t=2 < until)
        assert buff.has_pending(P2) and [d.dst for _, _, d in buff._delayed] == [P2]
        assert buff.drop_all_for(P2) == 2

    def test_in_transit_counts_the_delay_heap(self):
        buff = self.delaying_buffer()
        buff.send(P1, P2, "A")
        assert not buff.has_pending(P2)
        assert buff.delayed_count() == 1  # sequestered != delivered
        buff.release(10)
        # Now visible, still in transit.
        assert buff.delayed_count() == 0 and len(buff.inbox(P2)) == 1
        buff.receive(P2)
        assert not buff.has_pending(P2) and buff.delayed_count() == 0

    def test_heap_order_survives_a_purge(self):
        # Datagrams with distinct release times: purging the middle one
        # must leave a valid heap so release order stays chronological.
        buff = self.delaying_buffer(until=10, amount=1)
        for t, (dst, tag) in enumerate(((P2, "A"), (P3, "X"), (P2, "B"))):
            buff.release(t)
            buff.send(P1, dst, tag)
        buff.drop_all_for(P3)
        buff.release(20)
        assert [d.tag for d in buff.inbox(P2)] == ["A", "B"]
