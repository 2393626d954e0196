"""Retired faultiness body, kept as the reference for sensitivity tests.

* ``set_faulty_at`` / ``faulty_edges_at`` — the parent's
  ``FailurePattern.set_faulty_at`` and the ``faulty_edges_at`` that
  asked it, verbatim apart from the method becoming a function.  It
  reads ``is_alive``, so a member that is down but will rejoin makes
  its intersection faulty for the length of the outage; ``GammaOracle``
  then excludes the family forever and Ordering breaks after the rejoin.
  ``tests/faults/test_nemesis.py`` patches it back in to show the
  nemesis grid catches that defect.
"""

import itertools
from typing import FrozenSet, Iterable, Set

from repro.groups.families import Edge, _edge
from repro.groups.topology import GroupFamily
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId


def set_faulty_at(
    pattern: FailurePattern, group: Iterable[ProcessId], t: Time
) -> bool:
    """Whether *every* process of ``group`` is crashed at time ``t``.

    This is the building block of group-intersection faultiness: the
    paper says ``g ∩ h`` is faulty at ``t`` when all its members are.
    An empty group is vacuously faulty.
    """
    return all(not pattern.is_alive(p, t) for p in group)


def faulty_edges_at(
    family: GroupFamily, pattern: FailurePattern, t: Time
) -> FrozenSet[Edge]:
    """Edges ``(g, h)`` of the family whose intersection is crashed at ``t``."""
    dead: Set[Edge] = set()
    for g, h in itertools.combinations(sorted(family), 2):
        shared = g.intersection(h)
        if shared and set_faulty_at(pattern, shared, t):
            dead.add(_edge(g, h))
    return frozenset(dead)
