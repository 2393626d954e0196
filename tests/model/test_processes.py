"""Tests for process identifiers."""

import copy
import pickle

import pytest

from repro.model.processes import ProcessId, by_indices, make_processes


def test_make_processes_names_follow_paper_convention():
    procs = make_processes(3)
    assert [p.name for p in procs] == ["p1", "p2", "p3"]


def test_processes_are_totally_ordered():
    procs = make_processes(5)
    assert sorted([procs[3], procs[0], procs[2]]) == [procs[0], procs[2], procs[3]]


def test_process_index_must_be_positive():
    with pytest.raises(ValueError):
        ProcessId(0)
    with pytest.raises(ValueError):
        ProcessId(-2)


def test_make_processes_rejects_empty_system():
    with pytest.raises(ValueError):
        make_processes(0)


def test_by_indices_builds_sets():
    assert by_indices(1, 3) == frozenset({ProcessId(1), ProcessId(3)})


def test_process_identity_is_value_based():
    assert ProcessId(2) == ProcessId(2)
    assert hash(ProcessId(2)) == hash(ProcessId(2))
    assert ProcessId(2) != ProcessId(3)


class TestIdentityContract:
    """A process id is a one-field tuple: hashed and compared in C, with
    the hash values the generated dataclass methods used to give."""

    def test_hash_is_the_field_tuples_hash(self):
        # These values order every carrier set a run iterates, hence the
        # order steps are charged in: frozen like a golden.
        for index in (1, 2, 7, 200, 10**6):
            assert hash(ProcessId(index)) == hash((index,))

    def test_hash_and_comparisons_are_tuples_own(self):
        # A Python-level dunder coming back is a third of a run's host
        # calls: a red test, not a slow benchmark.
        for dunder in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(ProcessId, dunder) is getattr(tuple, dunder), dunder

    def test_no_instance_dict(self):
        assert not hasattr(ProcessId(1), "__dict__")

    def test_rendering_is_unchanged(self):
        p = ProcessId(12)
        assert (p.name, repr(p), str(p), f"{p}") == ("p12",) * 4
        assert p.index == 12

    def test_invalid_index_message(self):
        with pytest.raises(ValueError, match="process index must be >= 1, got 0"):
            ProcessId(0)

    def test_sorting_equals_sorting_by_field_tuples(self):
        ids = [ProcessId(i) for i in (5, 1, 9, 3, 3, 2)]
        assert sorted(ids) == sorted(ids, key=lambda p: (p.index,))
        assert [p.index for p in sorted(ids)] == [1, 2, 3, 3, 5, 9]

    def test_pickle_and_deepcopy_round_trip(self):
        p = ProcessId(4)
        for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert type(clone) is ProcessId
            assert clone == p and hash(clone) == hash(p)
        group = by_indices(1, 2, 3)
        assert pickle.loads(pickle.dumps(group)) == group

    def test_equals_its_bare_field_tuple(self):
        # The price of the tuple base; nothing in the package keys one
        # container by both.
        assert ProcessId(1) == (1,)
        assert ProcessId(1) != (1, 1) and ProcessId(1) != 1
