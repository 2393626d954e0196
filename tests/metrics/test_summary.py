"""Tests for run metrics and the table formatter."""

import pytest

from repro.metrics.summary import format_table, latency_of
from repro.model.failures import crash_pattern, failure_free
from repro.model.messages import MessageFactory
from repro.model.processes import by_indices, make_processes, pset
from repro.model.runs import RunRecord

PROCS = make_processes(3)
ALL = pset(PROCS)
P1, P2, P3 = PROCS


def sample_record():
    record = RunRecord(ALL, failure_free(ALL))
    factory = MessageFactory()
    m1 = factory.multicast(P1, by_indices(1, 2))
    record.note_multicast(1, P1, m1)
    record.note_step(1, P1)
    record.note_step(2, P2)
    record.note_step(2, P3)  # P3 is outside every destination group
    record.note_delivery(4, P1, m1)
    record.note_delivery(6, P2, m1)
    return record, m1


def test_latency_is_multicast_to_last_delivery():
    record, m1 = sample_record()
    assert latency_of(record, m1) == 5


def test_latency_none_for_undelivered():
    record = RunRecord(ALL, failure_free(ALL))
    factory = MessageFactory()
    m = factory.multicast(P1, by_indices(1))
    record.note_multicast(0, P1, m)
    assert latency_of(record, m) is None


def faulty_deliverer_record():
    """P2 crashes at round 10 but sneaks a delivery in at round 9."""
    pattern = crash_pattern(ALL, {P2: 10})
    record = RunRecord(ALL, pattern)
    factory = MessageFactory()
    m = factory.multicast(P1, by_indices(1, 2))
    record.note_multicast(1, P1, m)
    record.note_delivery(3, P1, m)
    record.note_delivery(9, P2, m)  # faulty — crashes next round
    return record, m


def test_latency_excludes_faulty_deliverers_by_default():
    # Seed bug: the faulty P2's round-9 delivery dominated max(), so
    # latency_of reported 8 instead of the correct-members-only 2.
    record, m = faulty_deliverer_record()
    assert latency_of(record, m) == 2


def test_latency_none_when_only_faulty_processes_delivered():
    pattern = crash_pattern(ALL, {P2: 10})
    record = RunRecord(ALL, pattern)
    factory = MessageFactory()
    m = factory.multicast(P1, by_indices(1, 2))
    record.note_multicast(1, P1, m)
    record.note_delivery(9, P2, m)
    assert latency_of(record, m) is None


def test_format_table_alignment():
    table = format_table(("a", "bb"), [(1, 2.5), (30, 4.0)])
    lines = table.splitlines()
    assert lines[0].startswith("a ")
    assert "2.50" in table
    assert len(lines) == 4
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # every row padded to the same width


def test_format_table_rejects_long_rows():
    # Seed bug: a row longer than the header list raised a bare
    # IndexError from columns[i].
    with pytest.raises(ValueError, match="row 1 has 3 cells, expected 2"):
        format_table(("a", "b"), [(1, 2), (1, 2, 3)])


def test_format_table_rejects_short_rows():
    # Seed bug: a short row silently rendered a misaligned table.
    with pytest.raises(ValueError, match="row 0 has 1 cells, expected 2"):
        format_table(("a", "b"), [(1,)])
