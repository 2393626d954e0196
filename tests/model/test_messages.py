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
    """A message id is a two-field tuple, hashed and compared in C; a
    message computes its four-field hash once and keeps it to itself."""

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

    def test_message_hash_is_the_four_field_hash_computed_once(self):
        m = MessageFactory().multicast(P1, by_indices(1, 2), payload="x")
        assert "_hash" not in vars(m)
        assert hash(m) == hash((m.mid, m.src, m.dst, m.payload))
        assert vars(m)["_hash"] == hash(m)
        twin = MulticastMessage(m.mid, m.src, m.dst, "x")
        assert twin == m and hash(twin) == hash(m)
        assert len({m, twin}) == 1

    def test_message_hash_cache_does_not_travel(self):
        # A str payload hashes differently in every interpreter: a
        # message pickled after being hashed must not carry the value.
        m = MessageFactory().multicast(P1, by_indices(1, 2), payload="x")
        hash(m)
        for clone in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert "_hash" not in vars(clone)
            assert clone == m and hash(clone) == hash(m)
        assert "_hash" not in m.__getstate__()

    def test_unhashable_payload_constructs_and_raises_only_when_hashed(self):
        m = MessageFactory().multicast(P1, by_indices(1), payload={"op": "put"})
        assert m == MulticastMessage(m.mid, m.src, m.dst, {"op": "put"})
        with pytest.raises(TypeError):
            hash(m)
        assert "_hash" not in vars(m)


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
        assert len(buff.pending_for(P2)) == 1
        assert len(buff.pending_for(P2)) == 1
        assert buff.has_pending(P2)

    def test_receive_specific_removes_chosen_datagram(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A")
        wanted = buff.send(P1, P2, "B")
        got = buff.receive_specific(P2, wanted)
        assert got.tag == "B"
        assert buff.receive(P2).tag == "A"

    def test_receive_specific_rejects_absent_datagram(self):
        buff = MessageBuffer()
        ghost = buff.send(P1, P2, "A")
        buff.receive(P2)
        with pytest.raises(ModelError):
            buff.receive_specific(P2, ghost)

    def test_drop_all_for_crashed_process(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A")
        buff.send(P3, P2, "B")
        assert buff.drop_all_for(P2) == 2
        assert buff.receive(P2) is None

    def test_counters_track_traffic(self):
        buff = MessageBuffer()
        buff.send(P1, P2, "A")
        buff.send(P1, P3, "B")
        buff.receive(P2)
        assert buff.sent_count == 2
        assert buff.received_count == 1
        assert buff.in_transit() == 1


class TestDelayedDatagramLifecycle:
    """The delay heap obeys the same crash and accounting rules as
    the visible queues — sequestered traffic is still traffic."""

    @staticmethod
    def delaying_buffer(until=5, amount=3):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultEvent, plan_of

        injector = FaultInjector(
            plan_of(FaultEvent(kind="link_delay", start=0, until=until, amount=amount)),
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
        assert buff.delayed_for(P2) == 0
        # P2 never hears from the purged datagrams, P3's still arrives.
        buff.release(10)
        assert buff.receive(P2) is None
        assert buff.receive(P3).tag == "ALIVE"

    def test_drop_all_for_counts_pending_plus_sequestered(self):
        buff = self.delaying_buffer(until=3, amount=2)
        buff.send(P1, P2, "EARLY")  # sequestered, releases at t=2
        buff.release(2)             # ...now visible
        buff.send(P1, P2, "LATE")   # sequestered again (t=2 < until)
        assert buff.has_pending(P2) and buff.delayed_for(P2) == 1
        assert buff.drop_all_for(P2) == 2

    def test_in_transit_counts_the_delay_heap(self):
        buff = self.delaying_buffer()
        buff.send(P1, P2, "A")
        assert not buff.has_pending(P2)
        assert buff.in_transit() == 1  # sequestered != delivered
        buff.release(10)
        assert buff.in_transit() == 1  # now visible, still in transit
        buff.receive(P2)
        assert buff.in_transit() == 0

    def test_heap_order_survives_a_purge(self):
        # Datagrams with distinct release times: purging the middle one
        # must leave a valid heap so release order stays chronological.
        buff = self.delaying_buffer(until=10, amount=1)
        for t, (dst, tag) in enumerate(((P2, "A"), (P3, "X"), (P2, "B"))):
            buff.release(t)
            buff.send(P1, dst, tag)
        buff.drop_all_for(P3)
        buff.release(20)
        assert [d.tag for d in buff.pending_for(P2)] == ["A", "B"]
