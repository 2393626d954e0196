"""The ranking function of Bonnet & Raynal [6], used by Algorithm 2.

Processes keep track of each other by exchanging (asynchronous) "alive"
messages; the rank of a process at an observer is the number of alive
messages received so far, and the rank of a set is the lowest rank among
its members.  The key property: a set's rank grows forever iff all its
members are correct.

In the simulation the alive traffic is one heartbeat per live process per
round, which realizes exactly that property.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet


class HeartbeatRanking:
    """Rank bookkeeping shared by the extraction algorithms.

    Attributes:
        pattern: the run's failure pattern (drives who still beats).
    """

    def __init__(self, pattern: FailurePattern) -> None:
        self.pattern = pattern
        self._beats: Dict[ProcessId, int] = {
            p: 0 for p in pattern.processes
        }

    def advance(self, t: Time) -> None:
        """One round: every process alive at ``t`` emits a heartbeat."""
        for p in self.pattern.processes:
            if self.pattern.is_alive(p, t):
                self._beats[p] += 1

    def rank(self, member_set: Iterable[ProcessId]) -> int:
        """``rank(x)``: the lowest member rank (0 for the empty set)."""
        ranks = [self._beats[p] for p in member_set]
        return min(ranks) if ranks else 0
