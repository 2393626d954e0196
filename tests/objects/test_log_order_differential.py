"""The log's incremental message order against the sort-and-probe oracle.

``Log`` answers ``messages()`` / ``messages_before`` / ``rank`` from a
sorted key list it patches on every mutation, and promises that the
all-locked prefix of that order (``settled``) is final.  Random
``append`` / ``bump_and_lock`` sequences — messages and records mixed,
bump targets drawn so that slot ties happen — are replayed against
``_oracle``, which re-sorts the slot table on every read.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import SpecificationError, make_processes, pset
from repro.model.messages import MessageFactory
from repro.objects import Log

from . import _oracle

MESSAGES = [f"d{i}" for i in range(7)]
RECORDS = [(m, "g") for m in MESSAGES[:3]] + [(m, "g", 1) for m in MESSAGES[:3]]

OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "bump"]),
        st.sampled_from(MESSAGES + RECORDS),
        st.integers(min_value=0, max_value=9),
    ),
    max_size=45,
)


def settled_by_definition(log):
    """Length of the longest all-locked prefix of the oracle's order."""
    count = 0
    for m in _oracle.messages(log):
        if not log.locked(m):
            break
        count += 1
    return count


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_order_views_match_the_oracle_after_every_operation(ops):
    log = Log()
    settled = 0
    frozen = ()
    arrivals = []
    for op, datum, k in ops:
        if op == "append":
            if datum not in log and not isinstance(datum, tuple):
                arrivals.append(datum)
            log.append(datum)
        elif datum in log:
            log.bump_and_lock(datum, k)
        expected = _oracle.messages(log)
        assert log.messages() == expected
        assert log.arrivals == arrivals
        for index, m in enumerate(expected):
            assert log.rank(m) == index
            assert log.message_at(index) == m
            assert log.messages_before(m) == _oracle.messages_before(log, m)
        # ``settled`` is the all-locked prefix, only grows, and what it
        # covers never changes again.
        assert log.settled == settled_by_definition(log)
        assert log.settled >= settled
        settled = log.settled
        assert expected[: len(frozen)] == frozen
        frozen = expected[:settled]


def test_rank_of_an_absent_message_raises():
    log = Log()
    log.append("m1")
    with pytest.raises(SpecificationError):
        log.rank("ghost")


def test_an_unlocked_message_ahead_holds_settled_back():
    log = Log()
    for m in ("a", "b", "c"):
        log.append(m)
    log.bump_and_lock("b", 0)
    log.bump_and_lock("c", 0)
    assert log.settled == 0  # "a" is still unlocked at rank 0
    log.bump_and_lock("a", 9)  # moves behind both, and locks
    assert log.messages() == ("b", "c", "a")
    assert log.settled == 3


def test_comparing_a_message_with_a_record_is_a_type_error():
    (p,) = make_processes(1)
    message = MessageFactory().multicast(p, pset([p]))
    with pytest.raises(TypeError):
        message < (message.mid, "g")
    with pytest.raises(TypeError):
        sorted([(1, message), (1, (message.mid, "g"))])
