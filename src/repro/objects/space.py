"""The shared objects of Algorithm 1 (§4.3) and their step accounting.

Algorithm 1 is expressed over wait-free linearizable shared objects, and
the paper reasons "directly upon the linearization" (§4.4).  Each object
here is one class that holds the object's state and realizes that
linearization (operations run atomically inside simulator actions), *and*
keeps the genuineness audit honest: every mutating operation charges
computational steps to the processes that would take steps in the
message-passing construction of §4.3 — the invoker plus the object's
*carrier set*.

Carriers:

* ``LOG_g`` and ``CONS_{m,f}`` are built from consensus inside ``g``
  (universal construction): carrier = ``g``.
* ``LOG_{g∩h}`` is contention-free fast (Proposition 47): as long as all
  processes execute its operations in the same order, only the
  adopt–commit objects run and the carrier is ``g ∩ h``; on contention the
  backing consensus hosted by one of the two groups runs and that group is
  charged.

The space charges into one :class:`Sink` the runtime hands it: the run
record's charge list, the clock that stamps a charge, the set of parked
processes and the slot of a wake listener.  One operation is one frame:
the object's mutator appends its ``(time, billing order, reason)`` charge
(:func:`billing_order`), unparks the reader set the object bound when it
was created (:func:`reader_set`) and hands it to the listener, then
applies the operation.  An ``append`` of a datum already in the log and a
``bumpAndLock`` of a locked one still charge and wake, as the
message-passing construction still runs, but leave the log alone.  A
``bumpAndLock`` of a datum absent from the log is refused
(:class:`SpecificationError`) before it charges anything.

The log (:class:`LogHandle`) is an infinite array of slots numbered from
1, each holding zero or more data items, with exactly the paper's
sequential interface:

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
accessors (:meth:`LogHandle.messages_before` etc.) filter by item kind
first.  The kinds are told apart by :func:`is_record`: a record is a
tuple other than a :class:`repro.model.messages.MulticastMessage` (a
plain tuple or a message is told by its exact type alone).  A *bare*
:class:`repro.model.messages.MessageId` is a record, not a message item —
Algorithm 1 appends messages and records headed by an id, never an id
on its own.

The message items are kept sorted by their ``<_L`` key ``(slot, item)``
as the log mutates, and the prefix of that order whose items are all
locked — its length is :attr:`LogHandle.settled` — never changes again:

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
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.groups.topology import Group
from repro.model.errors import SpecificationError
from repro.model.messages import MulticastMessage
from repro.model.processes import ProcessId, ProcessSet

#: One recorded charge: (time, processes charged one step each, in
#: charging order, human-readable reason).
Charge = Tuple[int, Tuple[ProcessId, ...], str]


def is_record(datum: Any) -> bool:
    """The item-kind rule; ``append`` and ``bump_and_lock`` inline it."""
    kind = type(datum)
    return kind is tuple or kind is not MulticastMessage and isinstance(datum, tuple)


def _det_label(key: Any) -> str:
    """A hash-seed-independent rendering of an object-name key.

    ``repr(frozenset)`` follows string hash order, which varies per
    interpreter run (PYTHONHASHSEED); object names feed the step-charge
    reasons in the :class:`repro.model.runs.RunRecord`, so they must render
    identically across processes for traces to be reproducible.
    """
    if isinstance(key, (frozenset, set)):
        return "{" + ",".join(sorted(str(item) for item in key)) + "}"
    return str(key)


#: The readers of an object nobody reads (a consensus object: only its
#: proposer consumes its state, inside the action that proposed).
NO_READERS: FrozenSet[ProcessId] = frozenset()


class _StoppedClock:
    """The clock of a sink no scheduler drives: it reads time 0."""

    time = 0


class Sink:
    """Where every shared-object operation lands.

    Attributes:
        charges: the run record's charge list; an operation appends one
            :data:`Charge`.
        clock: supplies ``.time``, the instant a charge is stamped with
            (the engine's scheduler).
        parked: the processes parked at their fixpoint (the scheduler's
            ``proven_parked``); a write removes its object's readers.
        wake_listener: called with a write's readers once they left
            ``parked``, or ``None``.  The async driver installs its hook
            here to route wakes through latency-modelled channels.
    """

    __slots__ = ("charges", "clock", "parked", "wake_listener")

    def __init__(
        self,
        charges: Optional[List[Charge]] = None,
        clock: Any = None,
        parked: Optional[Set[ProcessId]] = None,
    ) -> None:
        self.charges: List[Charge] = [] if charges is None else charges
        self.clock = _StoppedClock() if clock is None else clock
        self.parked: Set[ProcessId] = set() if parked is None else parked
        self.wake_listener: Optional[Callable[[Iterable[ProcessId]], None]] = None


def reader_set(*groups: Group) -> FrozenSet[ProcessId]:
    """The processes that read an object kept for ``groups``: their
    members, added group by group into one set, then frozen.

    ``LOG_g`` and the reduction list ``L_g`` are read by the members of
    ``g``; ``LOG_{g∩h}`` by the members of both groups, ``g`` and ``h`` in
    the topology's order.  The async driver draws one wake latency per
    reader as the set iterates, and two equal sets built differently may
    iterate differently, so this is the one way a reader set is built.
    """
    readers: Set[ProcessId] = set()
    for g in groups:
        readers.update(g.members)
    return frozenset(readers)


def billing_order(caller: ProcessId, scope: ProcessSet) -> Tuple[ProcessId, ...]:
    """Who takes a step for one operation, in charging order: the invoker,
    then the other members of ``scope`` as the set iterates.

    The order is part of every recorded trace.  Two equal sets may
    iterate differently, so handles memoise it per scope *object*, never
    per scope value.
    """
    return (caller, *[c for c in scope if c != caller])


class _Bill(dict):
    """One operation path of one object: the reason its charges carry,
    and per caller its billing order over ``scope``, built on the
    caller's first operation.  A mutator reads it by subscript."""

    __slots__ = ("scope", "reason")

    def __init__(self, scope: ProcessSet, reason: str) -> None:
        super().__init__()
        self.scope = scope
        self.reason = reason

    def __missing__(self, caller: ProcessId) -> Tuple[ProcessId, ...]:
        order = self[caller] = billing_order(caller, self.scope)
        return order


class _HostOrders(dict):
    """Billing orders by ``(caller, host members)``, each built on its
    first use.  Hosts are a topology's groups, one object per membership,
    so keying by the member set memoises per scope object."""

    __slots__ = ()

    def __missing__(
        self, key: Tuple[ProcessId, ProcessSet]
    ) -> Tuple[ProcessId, ...]:
        order = self[key] = billing_order(*key)
        return order


class _Labels(dict):
    """:func:`_det_label` per key, each rendered on its first use."""

    __slots__ = ()

    def __missing__(self, key: Any) -> str:
        label = self[key] = _det_label(key)
        return label


class LogHandle:
    """A shared log (§4.3), bound to its carrier set for step accounting.

    The object is long-lived and grow-only.  Mutations (``append``,
    ``bump_and_lock``) charge the invoker and the carriers and wake the
    log's ``readers``, each in a frame of its own; reads are free (each
    carrier maintains a local replica in the universal construction, so
    reads are local).  Whether a quorum can answer a mutation is the
    caller's precondition, not the log's
    (:meth:`repro.core.engine.MulticastSystem.blocked`).

    Attributes:
        name: diagnostic label, e.g. ``"LOG_g1∩g3"``.
    """

    def __init__(
        self,
        name: str,
        carriers: ProcessSet,
        readers: FrozenSet[ProcessId],
        sink: Sink,
    ) -> None:
        self.name = name
        self.carriers = carriers
        #: Who reads this log: every mutation wakes them.
        self.readers = readers
        self._sink = sink
        #: Each path's bill: the scope it charges and the log's name
        #: never change.
        self._append_bill = _Bill(carriers, f"{name}.append")
        self._bump_bill = _Bill(carriers, f"{name}.bumpAndLock")
        #: The slot of every item, ``pos`` as a mapping: an item is in
        #: the log iff it is a key.  Readers never mutate it.
        self.positions: Dict[Any, int] = {}
        self._locked: Set[Any] = set()
        self._head = 1
        #: ``(slot, item)`` of every message item, sorted — the ``<_L``
        #: order, so ``order[r][1]`` is ``messages()[r]``.  ``append``
        #: pushes at the tail (the head slot exceeds every occupied one);
        #: ``bump_and_lock`` re-keys one entry.  Readers index it in
        #: place and never mutate it.
        self.order: List[Tuple[int, Any]] = []
        #: Length of the longest all-locked prefix of ``order``.
        #: Monotone, and ``order[r]`` never changes once ``r < settled``
        #: (see the module docstring).
        self.settled = 0
        #: The message items in append order.  Append-only: readers keep
        #: an index into it and read only what arrived since.
        self.arrivals: List[Any] = []
        #: The records of each ``(head, arity)`` in slot order, ties in
        #: append order — what the per-message accessors return.  An
        #: append lands last; a bump re-sorts only its own row tuple.
        self._rows: Dict[Tuple[Any, int], Tuple[Tuple[Any, ...], ...]] = {}
        #: The append slot of each record a bump moved: slot ties among
        #: rows break on it (append slots grow with append order).
        self._record_origins: Dict[Tuple[Any, ...], int] = {}

    # -- Mutations (charged) -----------------------------------------------

    def append(
        self, caller: ProcessId, datum: Any, _bill: Optional[_Bill] = None
    ) -> int:
        """Insert ``datum`` at the head slot; a no-op on the log if it is
        already present.  Returns the (possibly pre-existing) position of
        ``datum``.  ``_bill`` is the path an intersection log classified
        the operation onto."""
        bill = self._append_bill if _bill is None else _bill
        sink, readers = self._sink, self.readers
        sink.charges.append((sink.clock.time, bill[caller], bill.reason))
        parked = sink.parked
        parked -= readers
        if sink.wake_listener is not None:
            sink.wake_listener(readers)
        positions = self.positions
        if datum in positions:
            return positions[datum]
        position = self._head
        positions[datum] = position
        self._head = position + 1
        kind = type(datum)
        if kind is tuple or kind is not MulticastMessage and isinstance(datum, tuple):
            if datum:
                rows = self._rows
                key = (datum[0], len(datum))
                rows[key] = rows[key] + (datum,) if key in rows else (datum,)
        else:
            self.order.append((position, datum))
            self.arrivals.append(datum)
        return position

    def bump_and_lock(
        self, caller: ProcessId, datum: Any, k: int, _bill: Optional[_Bill] = None
    ) -> int:
        """Move ``datum`` to ``max(k, current slot)`` and lock it.

        Locking is idempotent: once locked, further calls leave the datum
        untouched (locked data cannot be bumped anymore).  Returns the
        final position.  ``_bill`` is as for :meth:`append`.
        """
        positions = self.positions
        if datum not in positions:
            self._refuse(datum)
        bill = self._bump_bill if _bill is None else _bill
        sink, readers = self._sink, self.readers
        sink.charges.append((sink.clock.time, bill[caller], bill.reason))
        parked = sink.parked
        parked -= readers
        if sink.wake_listener is not None:
            sink.wake_listener(readers)
        current = positions[datum]
        locked = self._locked
        if datum in locked:
            return current
        final = k if k > current else current
        positions[datum] = final
        locked.add(datum)
        if final >= self._head:
            self._head = final + 1
        kind = type(datum)
        if kind is tuple or kind is not MulticastMessage and isinstance(datum, tuple):
            if final != current and datum:
                self._refile(datum, current)
            return final
        keys = self.order
        if final != current:
            del keys[bisect_left(keys, (current, datum))]
            insort(keys, (final, datum))
        settled = self.settled
        while settled < len(keys) and keys[settled][1] in locked:
            settled += 1
        self.settled = settled
        return final

    #: The mutators' bodies, for :class:`IntersectionLogHandle` to apply
    #: a classified operation through (bound here, so instrumentation
    #: that wraps ``append`` / ``bump_and_lock`` sees it once).
    _apply_append = append
    _apply_bump = bump_and_lock

    def _refuse(self, datum: Any) -> None:
        """A ``bumpAndLock`` of ``datum``, absent from the log, is refused
        before it charges or wakes anyone."""
        raise SpecificationError(
            f"{self.name}: bumpAndLock on absent datum {datum!r}"
        )

    def _refile(self, record: Tuple[Any, ...], origin: int) -> None:
        """Re-sort the rows of ``record``'s head and arity after a bump
        moved it away from ``origin``, its append slot."""
        positions, origins = self.positions, self._record_origins
        origins[record] = origin
        key = (record[0], len(record))
        self._rows[key] = tuple(
            sorted(
                self._rows[key],
                key=lambda r: (positions[r], origins.get(r, positions[r])),
            )
        )

    # -- Reads (free) --------------------------------------------------------

    def pos(self, datum: Any) -> int:
        """The slot of ``datum``; 0 when absent."""
        return self.positions.get(datum, 0)

    def locked(self, datum: Any) -> bool:
        """Whether ``datum`` is locked in the log."""
        return datum in self._locked

    def __contains__(self, datum: Any) -> bool:
        return datum in self.positions

    def precedes(self, d: Any, d_prime: Any) -> bool:
        """``d <_L d'``: both present, lower slot or slot tie-break."""
        pos_d = self.positions.get(d)
        pos_dp = self.positions.get(d_prime)
        if pos_d is None or pos_dp is None:
            return False
        if pos_d != pos_dp:
            return pos_d < pos_dp
        return d < d_prime

    def messages(self) -> Tuple[Any, ...]:
        """The *message* items of the log, in ``<_L`` order."""
        return tuple(item for _, item in self.order)

    def rank(self, message: Any) -> int:
        """How many messages precede ``message``: its index in ``messages()``."""
        position = self.positions.get(message)
        if position is None:
            raise SpecificationError(
                f"{self.name}: rank of absent message {message!r}"
            )
        return bisect_left(self.order, (position, message))

    def messages_before(self, datum: Any) -> Tuple[Any, ...]:
        """Messages ``m'`` with ``m' <_L datum``; ``()`` unless ``datum``
        is a message of the log."""
        if is_record(datum) or datum not in self.positions:
            return ()
        return self.messages()[: self.rank(datum)]

    def position_records_for(self, message: Any) -> Tuple[Tuple[Any, Any, int], ...]:
        """Records ``(m, h, i)`` of ``message`` (written at line 14)."""
        return self._rows.get((message, 3), ())

    def stabilization_records_for(self, message: Any) -> Tuple[Tuple[Any, Any], ...]:
        """Records ``(m, h)`` of ``message`` (written at line 29)."""
        return self._rows.get((message, 2), ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}[{len(self.positions)} items, head={self._head}]"


class IntersectionLogHandle(LogHandle):
    """``LOG_{g∩h}`` with the contention-free fast path of Proposition 47.

    The log watches the per-process operation sequences.  While every
    process applies the same operations in the same order, each mutation
    runs on the adopt–commit fast path and charges only ``g ∩ h``.  The
    first out-of-order mutation (step contention) falls back to the
    consensus hosted by the carrier group and charges it.  A fast-path
    operation needs a ``Sigma_{g∩h}`` quorum; a slow-path one also a
    quorum of :meth:`slow_scope` — the caller's guard peeks the
    classification (:meth:`would_be_fast`) before the operation.

    Each mutation classifies itself (advancing the caller's cursor), then
    applies through the group log's body with its path's bill: ``g ∩ h``
    on the fast path, the slow scope on contention.
    """

    def __init__(
        self,
        name: str,
        intersection: ProcessSet,
        host_group: Group,
        readers: FrozenSet[ProcessId],
        sink: Sink,
        isolation: bool = False,
    ) -> None:
        super().__init__(name, intersection, readers, sink)
        self.host_group = host_group
        #: §6.2 configuration: the backing consensus runs inside ``g∩h``
        #: (from ``Sigma_{g∩h} ∧ Omega_{g∩h}``) instead of a host group.
        self.isolation = isolation
        self._established: List[Tuple[Any, ...]] = []
        #: Per process, the index of its next operation in
        #: ``_established`` (0 before its first).
        self._cursor: Dict[ProcessId, int] = {}
        self.fast_ops = 0
        self.slow_ops = 0
        # The fast path's bills replace the plain ones of a group log.
        slow = self.slow_scope()
        self._append_bill = _Bill(intersection, f"{name}.append[fast]")
        self._bump_bill = _Bill(intersection, f"{name}.bumpAndLock[fast]")
        self._append_slow_bill = _Bill(slow, f"{name}.append[slow]")
        self._bump_slow_bill = _Bill(slow, f"{name}.bumpAndLock[slow]")

    def would_be_fast(self, caller: ProcessId, signature: Tuple[Any, ...]) -> bool:
        """Peek the fast/slow classification without advancing cursors:
        whether ``caller``'s next operation, ``signature``, keeps to the
        established order."""
        index = self._cursor.get(caller, 0)
        if index < len(self._established):
            return self._established[index] == signature
        return True

    def slow_scope(self) -> ProcessSet:
        """Who runs the backing consensus on the slow path: the host
        group, or ``g ∩ h`` itself under §6.2 isolation."""
        return self.carriers if self.isolation else self.host_group.members

    def append(self, caller: ProcessId, datum: Any) -> int:
        cursor, established = self._cursor, self._established
        index = cursor[caller] if caller in cursor else 0
        cursor[caller] = index + 1
        signature = ("append", datum)
        if index >= len(established):
            established.append(signature)
            self.fast_ops += 1
            bill = self._append_bill
        elif established[index] == signature:
            self.fast_ops += 1
            bill = self._append_bill
        else:
            self.slow_ops += 1
            bill = self._append_slow_bill
        return self._apply_append(caller, datum, bill)

    def bump_and_lock(self, caller: ProcessId, datum: Any, k: int) -> int:
        if datum not in self.positions:
            # Refused before it classifies: a refused operation is no
            # operation of the caller's sequence.
            self._refuse(datum)
        cursor, established = self._cursor, self._established
        index = cursor[caller] if caller in cursor else 0
        cursor[caller] = index + 1
        signature = ("bumpAndLock", datum, k)
        if index >= len(established):
            established.append(signature)
            self.fast_ops += 1
            bill = self._bump_bill
        elif established[index] == signature:
            self.fast_ops += 1
            bill = self._bump_bill
        else:
            self.slow_ops += 1
            bill = self._bump_slow_bill
        return self._apply_bump(caller, datum, k, bill)


class ConsensusHandle:
    """Single-shot consensus ``CONS_{m,f}``, hosted by a group: the first
    proposed value is decided.

    Validity, agreement and (in the linearized world) termination are
    immediate from the specification; the wait-free message-passing
    realization from ``Omega ∧ Sigma`` is
    :class:`repro.substrates.consensus.ConsensusAutomaton`.
    """

    def __init__(
        self, name: str, host_group: Group, sink: Sink, orders: _HostOrders
    ) -> None:
        self.name = name
        self.host_group = host_group
        self._sink = sink
        #: The space's billing orders by (caller, host members).
        self._orders = orders
        self._host = host_group.members
        self._reason = f"{name}.propose"
        self.decided = False
        self._decision: Any = None
        self.proposal_count = 0

    def propose(self, caller: ProcessId, value: Any) -> Any:
        """Propose ``value``; returns the (unique) decided value."""
        # CONS_{m,f} sees one proposal per member of g, so its billing
        # order comes from the space's memo, shared by every object g hosts.
        sink = self._sink
        sink.charges.append(
            (sink.clock.time, self._orders[caller, self._host], self._reason)
        )
        self.proposal_count += 1
        if not self.decided:
            self._decision = value
            self.decided = True
        return self._decision

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = repr(self._decision) if self.decided else "?"
        return f"{self.name}={state}"


class ObjectSpace:
    """Registry of the shared objects of one multicast deployment.

    Objects are created lazily (the model allows unboundedly many) and
    shared across processes by key:

    * group logs, keyed by group;
    * intersection logs, keyed by the unordered group pair;
    * consensus objects, keyed by ``(message key, family key)``.

    Every log binds its reader set (:func:`reader_set`) when it is
    created; each of its mutations wakes it through ``sink``.
    """

    def __init__(
        self,
        sink: Optional[Sink] = None,
        isolation: bool = False,
    ) -> None:
        self.sink = Sink() if sink is None else sink
        #: §6.2 strongly-genuine configuration for intersection logs.
        self.isolation = isolation
        self._group_logs: Dict[Group, LogHandle] = {}
        self._intersection_logs: Dict[frozenset, IntersectionLogHandle] = {}
        self._consensus: Dict[Tuple[Any, Any], ConsensusHandle] = {}
        #: ``propose``'s billing orders, by (caller, host members).
        self._host_orders = _HostOrders()
        #: The rendered family keys of consensus-object names.
        self._family_labels = _Labels()

    def group_log(self, g: Group) -> LogHandle:
        """``LOG_g``, carried and read by the members of ``g``."""
        handle = self._group_logs.get(g)
        if handle is None:
            handle = LogHandle(
                f"LOG_{g.name}", g.members, reader_set(g), self.sink
            )
            self._group_logs[g] = handle
        return handle

    def intersection_log(self, g: Group, h: Group) -> LogHandle:
        """``LOG_{g∩h}`` (= ``LOG_g`` when ``g == h``), read by the
        members of both groups.

        Hosted, on its slow path, by the smaller-named group of the pair,
        mirroring §4.3's "implemented atop some group, say g".
        """
        if g == h:
            return self.group_log(g)
        if not g.intersects(h):
            raise SpecificationError(
                f"no intersection log for disjoint groups {g.name}, {h.name}"
            )
        key = frozenset((g, h))
        handle = self._intersection_logs.get(key)
        if handle is None:
            first, second = sorted((g, h), key=lambda x: x.name)
            handle = IntersectionLogHandle(
                f"LOG_{first.name}∩{second.name}",
                g.intersection(h),
                host_group=first,
                # The topology's pair order (GroupTopology.intersecting_pairs).
                readers=reader_set(*sorted((g, h))),
                sink=self.sink,
                isolation=self.isolation,
            )
            self._intersection_logs[key] = handle
        return handle

    def consensus(self, message_key: Any, family_key: Any, host: Group) -> ConsensusHandle:
        """``CONS_{m,f}``, hosted by ``dst(m)``.

        Two processes reach the same object exactly when both keys match
        (§4.3): the message and the computed family.
        """
        key = (message_key, family_key)
        consensus = self._consensus
        if key in consensus:
            return consensus[key]
        handle = consensus[key] = ConsensusHandle(
            f"CONS[{_det_label(message_key)},{self._family_labels[family_key]}]",
            host,
            self.sink,
            self._host_orders,
        )
        return handle
