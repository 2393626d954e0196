"""Process identifiers and process sets.

The paper assumes a finite set of processes ``P = {p1, ..., pn}``.  We
represent a process by a lightweight immutable identifier
(:class:`ProcessId`) and expose helpers to build canonical process sets.

Process identifiers are totally ordered (by index) which the algorithms
rely on: Algorithm 1 breaks ties between data items sharing a log slot with
"some a priori total order" and several constructions elect the smallest
correct process.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, NamedTuple, Tuple


class _ProcessIdFields(NamedTuple):
    index: int


class ProcessId(_ProcessIdFields):
    """An immutable, totally ordered process identifier.

    A one-field tuple: hashing, ``==`` and ``<`` are ``tuple``'s own, in C.
    Process ids key every carrier set, wake set and step counter, so a
    Python-level ``__hash__`` here is a third of a run's host calls.  The
    hash value is ``hash((index,))`` — what the frozen dataclass this
    replaced generated — and is pinned by ``tests/model/test_processes.py``:
    it fixes the iteration order of every ``frozenset`` of processes, hence
    the order steps are charged in, hence every golden trace.

    A process id compares equal to the bare tuple ``(index,)``; nothing in
    the package keys a container by both.

    Attributes:
        index: position of the process in the system, starting at 1 (the
            paper numbers processes ``p1, p2, ...``).
    """

    __slots__ = ()

    def __new__(cls, index: int) -> "ProcessId":
        if index < 1:
            raise ValueError(f"process index must be >= 1, got {index}")
        return tuple.__new__(cls, (index,))

    @property
    def name(self) -> str:
        """Human-readable name, matching the paper's ``p<i>`` convention."""
        return f"p{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


ProcessSet = FrozenSet[ProcessId]


def make_processes(count: int) -> Tuple[ProcessId, ...]:
    """Return the canonical tuple of processes ``(p1, ..., p<count>)``.

    Args:
        count: number of processes in the system; must be positive.
    """
    if count < 1:
        raise ValueError(f"a system needs at least one process, got {count}")
    return tuple(ProcessId(i) for i in range(1, count + 1))


def pset(processes: Iterable[ProcessId]) -> ProcessSet:
    """Freeze an iterable of processes into a canonical set."""
    return frozenset(processes)


def by_indices(*indices: int) -> ProcessSet:
    """Build a process set from raw indices — convenient in tests.

    ``by_indices(1, 3)`` is ``{p1, p3}``.
    """
    return frozenset(ProcessId(i) for i in indices)
