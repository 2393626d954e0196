"""The shared-object space: objects, carriers and step accounting.

Algorithm 1 is expressed over wait-free linearizable shared objects, and
the paper reasons "directly upon the linearization" (§4.4).  The object
space realizes that linearization *and* keeps the genuineness audit
honest: every mutating operation charges computational steps to the
processes that would take steps in the message-passing construction of
§4.3 — the invoker plus the object's *carrier set*.

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
the handle's mutator appends its ``(time, billing order, reason)`` charge
(:func:`billing_order`), unparks the reader set its object bound when it
was created (:func:`reader_set`) and hands it to the listener, then
applies the operation.  An ``append`` of a datum already in the log still
charges and wakes, as the message-passing construction still runs, but
leaves the log alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.groups.topology import Group
from repro.model.errors import SpecificationError
from repro.model.processes import ProcessId, ProcessSet
from repro.objects.consensus import ConsensusObject
from repro.objects.log import Log

#: One recorded charge: (time, processes charged one step each, in
#: charging order, human-readable reason).
Charge = Tuple[int, Tuple[ProcessId, ...], str]


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
    """A shared log bound to its carrier set for step accounting.

    Mutations (``append``, ``bump_and_lock``) charge the invoker and the
    carriers and wake the log's ``readers``, each in a frame of its own;
    read-only queries are free (each carrier maintains a local replica in
    the universal construction, so reads are local).  Whether a quorum
    can answer a mutation is the caller's precondition, not the handle's
    (:meth:`repro.core.engine.MulticastSystem.blocked`).
    """

    def __init__(
        self,
        log: Log,
        carriers: ProcessSet,
        readers: FrozenSet[ProcessId],
        sink: Optional[Sink] = None,
    ) -> None:
        self.log = log
        self.carriers = carriers
        #: Who reads this log: every mutation wakes them.
        self.readers = readers
        self._sink = Sink() if sink is None else sink
        #: Each path's bill: the scope it charges and the log's name
        #: never change.
        self._append_bill = _Bill(carriers, f"{log.name}.append")
        self._bump_bill = _Bill(carriers, f"{log.name}.bumpAndLock")

    @property
    def name(self) -> str:
        return self.log.name

    # -- Mutations (charged) -----------------------------------------------

    def append(self, caller: ProcessId, datum: Any) -> int:
        bill, sink, readers = self._append_bill, self._sink, self.readers
        sink.charges.append((sink.clock.time, bill[caller], bill.reason))
        parked = sink.parked
        parked -= readers
        if sink.wake_listener is not None:
            sink.wake_listener(readers)
        log = self.log
        positions = log.positions
        if datum in positions:
            return positions[datum]
        return log.append(datum)

    def bump_and_lock(self, caller: ProcessId, datum: Any, k: int) -> int:
        bill, sink, readers = self._bump_bill, self._sink, self.readers
        sink.charges.append((sink.clock.time, bill[caller], bill.reason))
        parked = sink.parked
        parked -= readers
        if sink.wake_listener is not None:
            sink.wake_listener(readers)
        return self.log.bump_and_lock(datum, k)

    # -- Reads (free) --------------------------------------------------------

    def pos(self, datum: Any) -> int:
        return self.log.pos(datum)

    def locked(self, datum: Any) -> bool:
        return self.log.locked(datum)

    def __contains__(self, datum: Any) -> bool:
        return datum in self.log

    def precedes(self, d: Any, d_prime: Any) -> bool:
        return self.log.precedes(d, d_prime)

    def messages(self) -> Tuple[Any, ...]:
        return self.log.messages()

    def messages_before(self, datum: Any) -> Tuple[Any, ...]:
        return self.log.messages_before(datum)

    @property
    def arrivals(self) -> List[Any]:
        return self.log.arrivals

    def position_records_for(self, message: Any):
        return self.log.position_records_for(message)

    def stabilization_records_for(self, message: Any):
        return self.log.stabilization_records_for(message)


class IntersectionLogHandle(LogHandle):
    """``LOG_{g∩h}`` with the contention-free fast path of Proposition 47.

    The handle watches the per-process operation sequences.  While every
    process applies the same operations in the same order, each mutation
    runs on the adopt–commit fast path and charges only ``g ∩ h``.  The
    first out-of-order mutation (step contention) falls back to the
    consensus hosted by the carrier group and charges it.  A fast-path
    operation needs a ``Sigma_{g∩h}`` quorum; a slow-path one also a
    quorum of :meth:`slow_scope` — the caller's guard peeks the
    classification (:meth:`would_be_fast`) before the operation.

    Each mutation classifies itself (advancing the caller's cursor) and
    charges its path's bill: ``g ∩ h`` on the fast path, the slow scope
    on contention.
    """

    def __init__(
        self,
        log: Log,
        intersection: ProcessSet,
        host_group: Group,
        readers: FrozenSet[ProcessId],
        sink: Optional[Sink] = None,
        isolation: bool = False,
    ) -> None:
        super().__init__(log, intersection, readers, sink)
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
        name, slow = log.name, self.slow_scope()
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
        sink, readers = self._sink, self.readers
        sink.charges.append((sink.clock.time, bill[caller], bill.reason))
        parked = sink.parked
        parked -= readers
        if sink.wake_listener is not None:
            sink.wake_listener(readers)
        log = self.log
        positions = log.positions
        if datum in positions:
            return positions[datum]
        return log.append(datum)

    def bump_and_lock(self, caller: ProcessId, datum: Any, k: int) -> int:
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
        sink, readers = self._sink, self.readers
        sink.charges.append((sink.clock.time, bill[caller], bill.reason))
        parked = sink.parked
        parked -= readers
        if sink.wake_listener is not None:
            sink.wake_listener(readers)
        return self.log.bump_and_lock(datum, k)


class ConsensusHandle:
    """A consensus object bound to the group that hosts it."""

    def __init__(
        self,
        cons: ConsensusObject,
        host_group: Group,
        sink: Optional[Sink] = None,
        orders: Optional[_HostOrders] = None,
    ) -> None:
        self.cons = cons
        self.host_group = host_group
        self._sink = Sink() if sink is None else sink
        #: The space's billing orders by (caller, host members).
        self._orders = _HostOrders() if orders is None else orders
        self._host = host_group.members
        self._reason = f"{cons.name}.propose"

    def propose(self, caller: ProcessId, value: Any) -> Any:
        # CONS_{m,f} sees one proposal per member of g, so its billing
        # order comes from the space's memo, shared by every object g hosts.
        sink = self._sink
        sink.charges.append(
            (sink.clock.time, self._orders[caller, self._host], self._reason)
        )
        return self.cons.propose(value)

    @property
    def decided(self) -> bool:
        return self.cons.decided


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
                Log(f"LOG_{g.name}"),
                g.members,
                reader_set(g),
                self.sink,
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
                Log(f"LOG_{first.name}∩{second.name}"),
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
            ConsensusObject(
                f"CONS[{_det_label(message_key)},{self._family_labels[family_key]}]"
            ),
            host,
            self.sink,
            self._host_orders,
        )
        return handle

    # -- Introspection for tests and metrics -------------------------------

    def intersection_log_stats(self) -> Dict[str, Tuple[int, int]]:
        """Per-intersection-log (fast, slow) operation counts."""
        return {
            handle.name: (handle.fast_ops, handle.slow_ops)
            for handle in self._intersection_logs.values()
        }

    def consensus_objects_used(self) -> int:
        return len(self._consensus)
