"""The log's per-message record index against the filter-and-sort oracle.

``Log`` files every ``(m, h, i)`` and ``(m, h)`` record under its head
and arity when it is appended, and re-sorts only that row tuple when a
bump moves a record, so ``position_records_for`` /
``stabilization_records_for`` return a stored tuple.  Random ``append`` /
``bump_and_lock`` sequences — several rows per head, messages mixed in,
bump targets drawn as low slots or as the slot another item holds, so
records land on occupied slots and tie with their own rows — are
replayed against ``_oracle``, which filters and sorts the slot table on
every read.
"""

from hypothesis import example, given, settings, strategies as st

from repro.objects.log import Log

from . import _oracle

HEADS = ["d0", "d1"]
#: Two rows of each arity under ``d0`` (so they can tie), one under ``d1``.
RECORDS = [
    ("d0", "g", 1),
    ("d0", "h", 2),
    ("d0", "g"),
    ("d0", "h"),
    ("d1", "g", 1),
    ("d1", "g"),
]
ITEMS = HEADS + RECORDS

OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "bump"]),
        st.sampled_from(ITEMS),
        # A slot, or the item whose current slot is the bump target.
        st.one_of(st.integers(min_value=0, max_value=12), st.sampled_from(ITEMS)),
    ),
    min_size=10,
    max_size=50,
)

#: The tie random draws rarely reach: a row bumped past a later row, which
#: is then bumped onto the same slot; append order must still decide.
LATE_TIE = [
    ("append", ("d0", "g", 1), 0),
    ("append", ("d0", "h", 2), 0),
    ("bump", ("d0", "g", 1), 7),
    ("bump", ("d0", "h", 2), ("d0", "g", 1)),
]


def assert_index_matches_the_oracle(log, heads=HEADS):
    for m in [*heads, "absent"]:
        assert log.position_records_for(m) == _oracle.position_records_for(log, m)
        assert log.stabilization_records_for(m) == (
            _oracle.stabilization_records_for(log, m)
        )


@settings(max_examples=300, deadline=None)
@given(OPS)
@example(LATE_TIE)
def test_record_index_matches_the_oracle_after_every_operation(ops):
    log = Log()
    for op, datum, target in ops:
        if op == "append":
            log.append(datum)
        elif datum in log:
            k = target if isinstance(target, int) else log.pos(target)
            log.bump_and_lock(datum, k)
        assert_index_matches_the_oracle(log)


def test_a_record_bumped_onto_a_message_slot_moves_behind_later_rows():
    log = Log()
    log.append("m")  # slot 1
    record, later = ("m", "g"), ("m", "h")
    log.append(record)  # slot 2
    log.append(later)  # slot 3
    log.append("x")  # slot 4
    log.bump_and_lock(record, log.pos("x"))
    assert log.stabilization_records_for("m") == (later, record)
    assert log.messages() == ("m", "x")
    assert_index_matches_the_oracle(log, ["m"])
