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

The space receives one ``write`` sink (processes, reason, readers) from
the runtime, which turns charges into :class:`repro.model.runs.RunRecord`
steps and wakes the object's readers.  One operation is one call: the
processes it charges arrive together, in charging order
(:func:`billing_order`), with the reader set its object bound when it was
created (:func:`reader_set`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.groups.topology import Group
from repro.model.errors import SpecificationError
from repro.model.processes import ProcessId, ProcessSet
from repro.objects.consensus import ConsensusObject
from repro.objects.log import Log

#: Write sink: (processes to charge one step each, in charging order;
#: human-readable reason; the processes that read the object, to wake).
WriteSink = Callable[[Tuple[ProcessId, ...], str, FrozenSet[ProcessId]], None]

#: One operation path's memoised sink arguments.
Bill = Tuple[Tuple[ProcessId, ...], str, FrozenSet[ProcessId]]

#: Quorum guard: (caller, scope) -> True when a live quorum of ``scope``
#: is currently able to respond (see MulticastSystem.quorum_ok).
GuardFn = Callable[[ProcessId, ProcessSet], bool]

#: Consensus gate: (caller, host group) -> True when the leader-driven
#: consensus hosted by the group can terminate now (the adversarial
#: reading of ``Omega_g``: before the oracle stabilizes, ballots may be
#: preempted forever — see MulticastSystem.consensus_ok).
ConsensusGateFn = Callable[[ProcessId, Group], bool]


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


def _no_write(
    _processes: Tuple[ProcessId, ...], _reason: str, _readers: FrozenSet[ProcessId]
) -> None:
    """Default write sink: discard charges, wake nobody."""


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


def _always_available(_p: ProcessId, _scope: ProcessSet) -> bool:
    """Default quorum guard: the linearized world never blocks."""
    return True


class LogHandle:
    """A shared log bound to its carrier set for step accounting.

    Mutations (``append``, ``bump_and_lock``) charge the invoker and the
    carriers and wake the log's ``readers``, in one sink call; read-only
    queries are free (each carrier maintains a local replica in the
    universal construction, so reads are local).
    """

    def __init__(
        self,
        log: Log,
        carriers: ProcessSet,
        readers: FrozenSet[ProcessId],
        write: WriteSink = _no_write,
        guard: GuardFn = _always_available,
    ) -> None:
        self.log = log
        self.carriers = carriers
        #: Who reads this log: every mutation wakes them.
        self.readers = readers
        self._write = write
        self._guard = guard
        #: ``(billing order, reason, readers)`` per (caller, op path) —
        #: the scope a path charges and the log's name never change.
        self._bills: Dict[Tuple[ProcessId, str], Bill] = {}

    @property
    def name(self) -> str:
        return self.log.name

    def mutation_available(self, caller: ProcessId, *_signature: object) -> bool:
        """Whether a mutation by ``caller`` can gather its quorum now.

        Operations of the universal construction complete only once a
        quorum of the carrier scope (per ``Sigma_carriers``) responds;
        action systems consult this as an extra precondition.
        """
        return self._guard(caller, self.carriers)

    def _bill(self, caller: ProcessId, op: str, scope: ProcessSet) -> Bill:
        """Memoise the sink arguments of ``op`` (a path) by ``caller``,
        charged to ``scope``; a mutation reads the memo first."""
        bill = self._bills[caller, op] = (
            billing_order(caller, scope),
            f"{self.log.name}.{op}",
            self.readers,
        )
        return bill

    # -- Mutations (charged) -----------------------------------------------

    def append(self, caller: ProcessId, datum: Any) -> int:
        bill = self._bills.get((caller, "append")) or self._bill(
            caller, "append", self.carriers
        )
        self._write(*bill)
        return self.log.append(datum)

    def bump_and_lock(self, caller: ProcessId, datum: Any, k: int) -> int:
        bill = self._bills.get((caller, "bumpAndLock")) or self._bill(
            caller, "bumpAndLock", self.carriers
        )
        self._write(*bill)
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
    consensus hosted by the carrier group and charges it.
    """

    def __init__(
        self,
        log: Log,
        intersection: ProcessSet,
        host_group: Group,
        readers: FrozenSet[ProcessId],
        write: WriteSink = _no_write,
        guard: GuardFn = _always_available,
        isolation: bool = False,
    ) -> None:
        super().__init__(log, intersection, readers, write, guard)
        self.host_group = host_group
        #: §6.2 configuration: the backing consensus runs inside ``g∩h``
        #: (from ``Sigma_{g∩h} ∧ Omega_{g∩h}``) instead of a host group.
        self.isolation = isolation
        self._established: List[Tuple[Any, ...]] = []
        self._cursor: Dict[ProcessId, int] = {}
        self.fast_ops = 0
        self.slow_ops = 0

    def _would_be_fast(self, caller: ProcessId, signature: Tuple[Any, ...]) -> bool:
        """Peek the fast/slow classification without advancing cursors."""
        index = self._cursor.get(caller, 0)
        if index < len(self._established):
            return self._established[index] == signature
        return True

    def _slow_scope(self) -> ProcessSet:
        return self.carriers if self.isolation else self.host_group.members

    def mutation_available(self, caller: ProcessId, *signature: object) -> bool:
        """Quorum availability, classified per Proposition 47.

        Fast-path operations (consistent with the established order) need
        a ``Sigma_{g∩h}`` quorum; slow-path operations additionally run
        the backing consensus, hosted by a full group — unless the §6.2
        isolation configuration keeps it inside the intersection.
        """
        if not self._guard(caller, self.carriers):
            return False
        if signature and not self._would_be_fast(caller, tuple(signature)):
            return self._guard(caller, self._slow_scope())
        return True

    def _path_bill(
        self, caller: ProcessId, op: str, signature: Tuple[Any, ...]
    ) -> Bill:
        """Classify ``op`` (advancing the caller's cursor) and return the
        sink arguments of its path: ``g ∩ h`` on the fast path, the slow
        scope on contention."""
        index = self._cursor.get(caller, 0)
        self._cursor[caller] = index + 1
        established = self._established
        if index < len(established) and established[index] != signature:
            self.slow_ops += 1
            path = op + "[slow]"
            return self._bills.get((caller, path)) or self._bill(
                caller, path, self._slow_scope()
            )
        if index >= len(established):
            established.append(signature)
        self.fast_ops += 1
        path = op + "[fast]"
        return self._bills.get((caller, path)) or self._bill(
            caller, path, self.carriers
        )

    def append(self, caller: ProcessId, datum: Any) -> int:
        self._write(*self._path_bill(caller, "append", ("append", datum)))
        return self.log.append(datum)

    def bump_and_lock(self, caller: ProcessId, datum: Any, k: int) -> int:
        self._write(
            *self._path_bill(caller, "bumpAndLock", ("bumpAndLock", datum, k))
        )
        return self.log.bump_and_lock(datum, k)


class ConsensusHandle:
    """A consensus object bound to the group that hosts it."""

    def __init__(
        self,
        cons: ConsensusObject,
        host_group: Group,
        write: WriteSink = _no_write,
        guard: GuardFn = _always_available,
        gate: Optional[ConsensusGateFn] = None,
    ) -> None:
        self.cons = cons
        self.host_group = host_group
        self._write = write
        self._guard = guard
        self._gate = gate

    def mutation_available(self, caller: ProcessId) -> bool:
        """Whether a proposal can terminate now: a quorum of the host
        group responds *and* the group's leader oracle has stabilized
        (``Omega_g ∧ Sigma_g``, the §4.3 consensus construction)."""
        if not self._guard(caller, self.host_group.members):
            return False
        return self._gate is None or self._gate(caller, self.host_group)

    def propose(self, caller: ProcessId, value: Any) -> Any:
        # No memo here: CONS_{m,f} sees one proposal per member of g.
        self._write(
            billing_order(caller, self.host_group.members),
            f"{self.cons.name}.propose",
            NO_READERS,
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
    created; ``write`` receives it with each mutation's charge.
    """

    def __init__(
        self,
        write: WriteSink = _no_write,
        guard: GuardFn = _always_available,
        isolation: bool = False,
        consensus_gate: Optional[ConsensusGateFn] = None,
    ) -> None:
        self._write = write
        self._guard = guard
        self._consensus_gate = consensus_gate
        #: §6.2 strongly-genuine configuration for intersection logs.
        self.isolation = isolation
        self._group_logs: Dict[Group, LogHandle] = {}
        self._intersection_logs: Dict[frozenset, IntersectionLogHandle] = {}
        self._consensus: Dict[Tuple[Any, Any], ConsensusHandle] = {}

    def group_log(self, g: Group) -> LogHandle:
        """``LOG_g``, carried and read by the members of ``g``."""
        handle = self._group_logs.get(g)
        if handle is None:
            handle = LogHandle(
                Log(f"LOG_{g.name}"),
                g.members,
                reader_set(g),
                self._write,
                self._guard,
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
                write=self._write,
                guard=self._guard,
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
        handle = self._consensus.get(key)
        if handle is None:
            handle = ConsensusHandle(
                ConsensusObject(
                    f"CONS[{_det_label(message_key)},{_det_label(family_key)}]"
                ),
                host,
                self._write,
                self._guard,
                gate=self._consensus_gate,
            )
            self._consensus[key] = handle
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
