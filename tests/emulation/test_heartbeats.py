"""Tests for the heartbeat ranking function of [6] (Algorithm 2)."""

from repro.emulation.heartbeats import HeartbeatRanking
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset

PROCS = make_processes(3)
ALL = pset(PROCS)
P1, P2, P3 = PROCS


def test_ranks_grow_while_alive():
    ranking = HeartbeatRanking(failure_free(ALL))
    for t in range(1, 6):
        ranking.advance(t)
    assert ranking.rank([P1]) == 5
    assert ranking.rank([P1, P2]) == 5


def test_crashed_process_rank_stalls():
    pattern = crash_pattern(ALL, {P2: 3})
    ranking = HeartbeatRanking(pattern)
    for t in range(1, 10):
        ranking.advance(t)
    assert ranking.rank([P2]) == 2  # beats at t=1, 2 only
    assert ranking.rank([P1]) == 9


def test_set_rank_is_minimum_of_members():
    pattern = crash_pattern(ALL, {P3: 1})
    ranking = HeartbeatRanking(pattern)
    for t in range(1, 8):
        ranking.advance(t)
    assert ranking.rank(by_indices(1, 3)) == 0
    assert ranking.rank(by_indices(1, 2)) == 7


def test_empty_set_rank_is_zero():
    ranking = HeartbeatRanking(failure_free(ALL))
    ranking.advance(1)
    assert ranking.rank([]) == 0


def test_key_property_correct_sets_dominate_eventually():
    """rank(x) grows forever iff x is all-correct: after enough rounds a
    correct set outranks any set with a faulty member."""
    pattern = crash_pattern(ALL, {P3: 5})
    ranking = HeartbeatRanking(pattern)
    for t in range(1, 20):
        ranking.advance(t)
    assert ranking.rank(by_indices(1, 2)) > ranking.rank(by_indices(1, 3))
