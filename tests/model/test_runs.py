"""Tests for run records."""

from hypothesis import given, settings, strategies as st

from repro.model.failures import crash_pattern, failure_free
from repro.model.messages import MessageFactory
from repro.model.processes import by_indices, make_processes, pset
from repro.model.runs import RunRecord
from repro.props.checkers import check_integrity

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
    record.note_multicast(0, P1, m)
    record.note_delivery(1, P1, m)
    record.note_delivery(2, P1, m)
    assert record.local_order(P1).count(m) == 2
    assert record.delivery_time(P1, m) == 2  # the last delivery's time
    assert check_integrity(record) == [f"{P1.name} delivered {m.mid} twice"]


def test_undelivered_is_the_correct_members_still_owing_a_delivery():
    factory = MessageFactory()
    record = RunRecord(ALL, crash_pattern(ALL, {P3: 4}))
    m = factory.multicast(P1, ALL)
    assert record.faulty == pset((P3,))
    assert record.undelivered(m) == pset((P1, P2))
    record.note_delivery(1, P2, m)
    assert record.undelivered(m) == pset((P1,))
    record.note_delivery(2, P1, m)
    assert record.undelivered(m) == frozenset()


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
_READS = st.sampled_from((None, "steps_of", "step_counts", "steps"))


def flat_steps(record):
    """The record's steps ``(time, process, received)``, one per process
    of each charge, in charge order."""
    return [(t, p, r) for t, ps, r in record.charges for p in ps]


def eager_counts(steps):
    """Per-process step counts over ``steps``, keys in first-step order."""
    counts = {}
    for _time, process, _received in steps:
        counts[process] = counts.get(process, 0) + 1
    return counts


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("one"), st.integers(0, 9), _PROCESSES, _REASONS, _READS),
            st.tuples(
                st.just("many"),
                st.integers(0, 9),
                st.lists(_PROCESSES, max_size=4).map(tuple),
                _REASONS,
                _READS,
            ),
        ),
        max_size=30,
    )
)
def test_a_charge_is_one_note_step_per_process(writes):
    """Any interleaving of ``note_step`` and of charges appended straight
    to ``record.charges`` (as the engine's sink does) reads back as the
    flattened ``note_step`` sequence — steps, per-process counts and
    their order.

    The counts are folded from the charges on read: a ``steps_of``,
    ``step_counts()`` or flattened-charges read may fall between any two
    writes, and after it the counts, keys in order, are an eager count
    over the flattened charges.
    """
    record, flat = make_record(), make_record()
    for kind, time, who, reason, read in writes:
        if kind == "one":
            record.note_step(time, who, received=reason)
            flat.note_step(time, who, received=reason)
        else:
            record.charges.append((time, who, reason))
            for process in who:
                flat.note_step(time, process, received=reason)
        if read == "steps_of":
            record.steps_of(P1)
        elif read == "step_counts":
            record.step_counts()
        elif read == "steps":
            assert len(flat_steps(record)) == len(flat_steps(flat))
        if read is not None:
            eager = eager_counts(flat_steps(record))
            assert record.step_counts() == eager
            assert list(record.step_counts()) == list(eager)
    assert flat_steps(record) == flat_steps(flat)
    assert record.step_counts() == flat.step_counts()
    assert list(record.step_counts()) == list(flat.step_counts())
    for process in ALL:
        assert record.steps_of(process) == flat.steps_of(process)
