"""The shared log object of Algorithm 1 (§4.3).

A log is an infinite array of slots numbered from 1, each holding zero or
more data items.  The sequential interface is exactly the paper's:

* ``append(d)`` inserts ``d`` at the head slot (idempotent when ``d`` is
  already present) and returns its position;
* ``pos(d)`` returns the slot of ``d`` (0 when absent);
* ``bumpAndLock(d, k)`` moves ``d`` from its slot ``l`` to ``max(k, l)``
  and locks it; locked data can no longer be bumped;
* ``locked(d)`` tells whether ``d`` is locked.

The log induces an order: ``d <_L d'`` iff ``pos(d) < pos(d')``, or they
share a slot and ``d < d'`` for the a-priori total order over data items
(here: Python's ``<`` on the items, e.g. message identifiers).

Logs hold heterogeneous items in Algorithm 1 — messages, position records
``(m, h, i)`` and stabilization records ``(m, h)`` — so ordering queries
are only issued between mutually comparable items; the convenience
accessors (:meth:`messages_before` etc.) filter by item kind first.
The kinds are told apart by ``isinstance(item, tuple)``: every tuple is a
record.  :class:`repro.model.messages.MessageId` and
:class:`repro.model.processes.ProcessId` are tuples, so a *bare* id is
not a message item — Algorithm 1 appends
:class:`repro.model.messages.MulticastMessage` objects (not tuples) and
records headed by an id, never an id on its own.

The message items are kept sorted by their ``<_L`` key ``(slot, item)``
as the log mutates, and the prefix of that order whose items are all
locked — its length is :attr:`Log.settled` — never changes again:

* a locked item never moves (``bumpAndLock`` on it is a no-op);
* an unlocked item only moves to a later slot, and it sits after the
  all-locked prefix already;
* ``append`` lands at the head slot, after every occupied slot.

So ``messages()[r]`` is final for every ``r < settled``, which is what
lets a reader keep a cursor over the prefix instead of rescanning it.

Records are filed at insertion too: per message head, the ``(m, h, i)``
rows and the ``(m, h)`` rows each keep their own tuple in slot order, so
the per-message accessors return a stored tuple.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.model.errors import SpecificationError


class Log:
    """Sequential specification of the shared log.

    The object is long-lived and grow-only; linearizability is provided by
    the runtime layer (operations run atomically inside simulator actions).

    Attributes:
        name: diagnostic label, e.g. ``"LOG_g1∩g3"``.
    """

    def __init__(self, name: str = "LOG") -> None:
        self.name = name
        self._positions: Dict[Any, int] = {}
        self._locked: Set[Any] = set()
        self._head = 1
        #: ``(slot, item)`` of every message item, sorted — the ``<_L``
        #: order, so ``order[r][1]`` is ``messages()[r]``.  ``append``
        #: pushes at the tail (the head slot exceeds every occupied one);
        #: ``bump_and_lock`` re-keys one entry.  Readers index it in
        #: place and never mutate it.
        self.order: List[Tuple[int, Any]] = []
        #: ``messages()`` as a tuple; dropped when a message item moves.
        self._messages_cache: Optional[Tuple[Any, ...]] = ()
        #: Length of the longest all-locked prefix of ``order``.
        #: Monotone, and ``order[r]`` never changes once ``r < settled``
        #: (see the module docstring).
        self.settled = 0
        #: The message items in append order.  Append-only: readers keep
        #: an index into it and read only what arrived since.
        self.arrivals: List[Any] = []
        #: ``records()`` as a tuple; dropped when a record arrives or moves.
        self._records_cache: Optional[Tuple[Tuple[Any, ...], ...]] = ()
        #: The records of each ``(head, arity)`` in slot order, ties in
        #: append order — what the per-message accessors return.  An
        #: append lands last; a bump re-sorts only its own row tuple.
        self._rows: Dict[Tuple[Any, int], Tuple[Tuple[Any, ...], ...]] = {}
        #: The append slot of each record a bump moved: slot ties among
        #: rows break on it (append slots grow with append order).
        self._record_origins: Dict[Tuple[Any, ...], int] = {}

    # -- Core interface (§4.3) -------------------------------------------

    def append(self, datum: Any) -> int:
        """Insert ``datum`` at the head slot; no-op if already present.

        Returns the (possibly pre-existing) position of ``datum``.
        """
        existing = self._positions.get(datum)
        if existing is not None:
            return existing
        position = self._head
        self._positions[datum] = position
        self._head = position + 1
        if isinstance(datum, tuple):
            self._records_cache = None
            if datum:
                rows = self._rows
                key = (datum[0], len(datum))
                rows[key] = rows.get(key, ()) + (datum,)
        else:
            self.order.append((position, datum))
            self._messages_cache = None
            self.arrivals.append(datum)
        return position

    def pos(self, datum: Any) -> int:
        """The slot of ``datum``; 0 when absent."""
        return self._positions.get(datum, 0)

    def bump_and_lock(self, datum: Any, k: int) -> int:
        """Move ``datum`` to ``max(k, current slot)`` and lock it.

        Locking is idempotent: once locked, further calls leave the datum
        untouched (locked data cannot be bumped anymore).  Returns the
        final position.
        """
        current = self._positions.get(datum)
        if current is None:
            raise SpecificationError(
                f"{self.name}: bumpAndLock on absent datum {datum!r}"
            )
        if datum in self._locked:
            return current
        final = max(k, current)
        self._positions[datum] = final
        self._locked.add(datum)
        if final >= self._head:
            self._head = final + 1
        if isinstance(datum, tuple):
            self._records_cache = None
            if final != current and datum:
                self._refile(datum, current)
            return final
        keys = self.order
        if final != current:
            del keys[bisect_left(keys, (current, datum))]
            insort(keys, (final, datum))
            self._messages_cache = None
        settled = self.settled
        locked = self._locked
        while settled < len(keys) and keys[settled][1] in locked:
            settled += 1
        self.settled = settled
        return final

    def _refile(self, record: Tuple[Any, ...], origin: int) -> None:
        """Re-sort the rows of ``record``'s head and arity after a bump
        moved it away from ``origin``, its append slot."""
        positions, origins = self._positions, self._record_origins
        origins[record] = origin
        key = (record[0], len(record))
        self._rows[key] = tuple(
            sorted(
                self._rows[key],
                key=lambda r: (positions[r], origins.get(r, positions[r])),
            )
        )

    def locked(self, datum: Any) -> bool:
        """Whether ``datum`` is locked in the log."""
        return datum in self._locked

    def __contains__(self, datum: Any) -> bool:
        return datum in self._positions

    # -- Ordering ----------------------------------------------------------

    def precedes(self, d: Any, d_prime: Any) -> bool:
        """``d <_L d'``: both present, lower slot or slot tie-break."""
        pos_d = self._positions.get(d)
        pos_dp = self._positions.get(d_prime)
        if pos_d is None or pos_dp is None:
            return False
        if pos_d != pos_dp:
            return pos_d < pos_dp
        return d < d_prime

    # -- Convenience accessors ---------------------------------------------

    def messages(self) -> Tuple[Any, ...]:
        """The *message* items of the log, in ``<_L`` order.

        Messages are recognized by not being tuples (Algorithm 1 stores
        records as tuples).
        """
        if self._messages_cache is None:
            self._messages_cache = tuple(item for _, item in self.order)
        return self._messages_cache

    def rank(self, message: Any) -> int:
        """How many messages precede ``message``: its index in ``messages()``."""
        position = self._positions.get(message)
        if position is None:
            raise SpecificationError(
                f"{self.name}: rank of absent message {message!r}"
            )
        return bisect_left(self.order, (position, message))

    def messages_before(self, datum: Any) -> Tuple[Any, ...]:
        """Messages ``m'`` with ``m' <_L datum``; ``()`` unless ``datum``
        is a message of the log."""
        if isinstance(datum, tuple) or datum not in self._positions:
            return ()
        return self.messages()[: self.rank(datum)]

    def records(self) -> Tuple[Tuple[Any, ...], ...]:
        """The tuple-shaped records of the log, in insertion-slot order."""
        if self._records_cache is None:
            present = [d for d in self._positions if isinstance(d, tuple)]
            present.sort(key=lambda d: self._positions[d])
            self._records_cache = tuple(present)
        return self._records_cache

    def position_records_for(self, message: Any) -> Tuple[Tuple[Any, Any, int], ...]:
        """Records ``(m, h, i)`` of ``message`` (written at line 14)."""
        return self._rows.get((message, 3), ())

    def stabilization_records_for(self, message: Any) -> Tuple[Tuple[Any, Any], ...]:
        """Records ``(m, h)`` of ``message`` (written at line 29)."""
        return self._rows.get((message, 2), ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}[{len(self._positions)} items, head={self._head}]"
