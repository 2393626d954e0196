"""Tests for run records."""

from hypothesis import given, settings, strategies as st

from repro.model.failures import failure_free
from repro.model.messages import MessageFactory
from repro.model.processes import by_indices, make_processes, pset
from repro.model.runs import RunRecord

P1, P2, P3 = make_processes(3)
ALL = pset((P1, P2, P3))


def make_record():
    return RunRecord(ALL, failure_free(ALL))


def test_local_order_tracks_delivery_sequence():
    factory = MessageFactory()
    record = make_record()
    m1 = factory.multicast(P1, by_indices(1, 2))
    m2 = factory.multicast(P2, by_indices(1, 2))
    record.note_delivery(3, P1, m1)
    record.note_delivery(5, P1, m2)
    record.note_delivery(4, P2, m2)
    assert record.local_order(P1) == (m1, m2)
    assert record.local_order(P2) == (m2,)
    assert record.local_order(P3) == ()


def test_delivery_and_multicast_times():
    factory = MessageFactory()
    record = make_record()
    m = factory.multicast(P1, by_indices(1, 2))
    record.note_multicast(1, P1, m)
    record.note_delivery(7, P2, m)
    record.note_delivery(9, P1, m)
    assert record.multicast_time(m) == 1
    assert record.delivery_time(P2, m) == 7
    assert record.first_delivery_time(m) == 7
    assert record.delivered_by(m) == by_indices(1, 2)


def test_step_accounting():
    record = make_record()
    record.note_step(1, P1)
    record.note_step(2, P1)
    record.note_step(2, P3)
    assert record.steps_of(P1) == 2
    assert record.steps_of(P2) == 0
    assert record.step_counts() == {P1: 2, P3: 1}


def test_delivery_count_detects_duplicates():
    factory = MessageFactory()
    record = make_record()
    m = factory.multicast(P1, by_indices(1))
    record.note_delivery(1, P1, m)
    record.note_delivery(2, P1, m)
    assert record.delivery_count(P1, m) == 2


def test_delivered_and_multicast_message_sets_deduplicate():
    factory = MessageFactory()
    record = make_record()
    m = factory.multicast(P1, by_indices(1, 2))
    record.note_multicast(0, P1, m)
    record.note_multicast(0, P1, m)
    record.note_delivery(1, P1, m)
    record.note_delivery(2, P2, m)
    assert record.multicast_messages() == (m,)
    assert record.delivered_messages() == (m,)


_PROCESSES = st.sampled_from((P1, P2, P3))
_REASONS = st.sampled_from((None, "LOG_g1.append", "LOG_g1∩g2.bumpAndLock[fast]"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("one"), st.integers(0, 9), _PROCESSES, _REASONS),
            st.tuples(
                st.sampled_from(("many", "many-list")),
                st.integers(0, 9),
                st.lists(_PROCESSES, max_size=4).map(tuple),
                _REASONS,
            ),
        ),
        max_size=30,
    )
)
def test_note_steps_is_one_note_step_per_process(writes):
    """Any interleaving of the two recorders reads back as the flattened
    ``note_step`` sequence — steps, per-process counts and their order.

    A list handed to ``note_steps`` is cleared and refilled right after
    the call: the record keeps a copy, so what it read back is unchanged.
    """
    record, flat = make_record(), make_record()
    for kind, time, who, reason in writes:
        if kind == "one":
            record.note_step(time, who, received=reason)
            flat.note_step(time, who, received=reason)
        elif kind == "many":
            record.note_steps(time, who, reason)
            for process in who:
                flat.note_step(time, process, received=reason)
        else:
            processes = list(who)
            record.note_steps(time, processes, reason)
            processes[:] = [P3, P2, P1]
            for process in who:
                flat.note_step(time, process, received=reason)
        assert len(record.steps) == len(flat.steps)  # the lazy view keeps up
    assert record.steps == flat.steps
    assert record.step_counts() == flat.step_counts()
    assert list(record.step_counts()) == list(flat.step_counts())
    for process in ALL:
        assert record.steps_of(process) == flat.steps_of(process)
