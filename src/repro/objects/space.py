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

The space receives a ``charge`` callback (processes, reason) from the
runtime, which turns charges into :class:`repro.model.RunRecord` steps.
One operation is one call: the processes it charges arrive together, in
charging order (:func:`billing_order`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.groups.topology import Group
from repro.model.errors import SpecificationError
from repro.model.processes import ProcessId, ProcessSet
from repro.objects.consensus import AdoptCommitObject, ConsensusObject
from repro.objects.log import Log

#: Charge callback: (processes to charge one step each, in charging
#: order; human-readable reason).
ChargeFn = Callable[[Tuple[ProcessId, ...], str], None]

#: Quorum guard: (caller, scope) -> True when a live quorum of ``scope``
#: is currently able to respond (see MulticastSystem.quorum_ok).
GuardFn = Callable[[ProcessId, ProcessSet], bool]

#: Consensus gate: (caller, host group) -> True when the leader-driven
#: consensus hosted by the group can terminate now (the adversarial
#: reading of ``Omega_g``: before the oracle stabilizes, ballots may be
#: preempted forever — see MulticastSystem.consensus_ok).
ConsensusGateFn = Callable[[ProcessId, Group], bool]

#: Write notification: (object name) -> None, reported on every mutation
#: so the runtime's wake index can re-run the object's readers.
WriteFn = Callable[[str], None]


def _det_label(key: Any) -> str:
    """A hash-seed-independent rendering of an object-name key.

    ``repr(frozenset)`` follows string hash order, which varies per
    interpreter run (PYTHONHASHSEED); object names feed the step-charge
    reasons in the :class:`repro.model.RunRecord`, so they must render
    identically across processes for traces to be reproducible.
    """
    if isinstance(key, (frozenset, set)):
        return "{" + ",".join(sorted(str(item) for item in key)) + "}"
    return str(key)


def _no_charge(_processes: Tuple[ProcessId, ...], _reason: str) -> None:
    """Default accounting sink: discard charges."""


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
    carriers; read-only queries are free (each carrier maintains a local
    replica in the universal construction, so reads are local).
    """

    def __init__(
        self,
        log: Log,
        carriers: ProcessSet,
        charge: ChargeFn,
        guard: GuardFn = _always_available,
        on_write: Optional[WriteFn] = None,
    ) -> None:
        self.log = log
        self.carriers = carriers
        self._charge = charge
        self._guard = guard
        self._on_write = on_write
        #: ``(billing order, reason)`` per (caller, op, path) — the scope
        #: a path charges and the log's name never change.
        self._bills: Dict[
            Tuple[ProcessId, str, str], Tuple[Tuple[ProcessId, ...], str]
        ] = {}

    def _notify_write(self) -> None:
        """Report a mutation to the runtime (drives the wake index)."""
        if self._on_write is not None:
            self._on_write(self.log.name)

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

    def _bill(
        self, caller: ProcessId, op: str, scope: ProcessSet, path: str = ""
    ) -> None:
        """Charge one ``op`` by ``caller`` to ``scope``, as one write."""
        bill = self._bills.get((caller, op, path))
        if bill is None:
            bill = self._bills[caller, op, path] = (
                billing_order(caller, scope),
                f"{self.log.name}.{op}{path}",
            )
        self._charge(*bill)

    # -- Mutations (charged) -----------------------------------------------

    def append(self, caller: ProcessId, datum: Any) -> int:
        self._bill(caller, "append", self.carriers)
        self._notify_write()
        return self.log.append(datum)

    def bump_and_lock(self, caller: ProcessId, datum: Any, k: int) -> int:
        self._bill(caller, "bumpAndLock", self.carriers)
        self._notify_write()
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

    def rank(self, message: Any) -> int:
        return self.log.rank(message)

    def message_at(self, rank: int) -> Any:
        return self.log.message_at(rank)

    @property
    def settled(self) -> int:
        return self.log.settled

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
        charge: ChargeFn,
        guard: GuardFn = _always_available,
        isolation: bool = False,
        on_write: Optional[WriteFn] = None,
    ) -> None:
        super().__init__(log, intersection, charge, guard, on_write=on_write)
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

    def _classify(self, caller: ProcessId, signature: Tuple[Any, ...]) -> bool:
        """Advance the caller's cursor; True when the op is contention-free."""
        index = self._cursor.get(caller, 0)
        self._cursor[caller] = index + 1
        if index < len(self._established):
            return self._established[index] == signature
        self._established.append(signature)
        return True

    def _bill_op(self, caller: ProcessId, op: str, signature: Tuple[Any, ...]) -> None:
        if self._classify(caller, signature):
            self.fast_ops += 1
            self._bill(caller, op, self.carriers, "[fast]")
        else:
            self.slow_ops += 1
            self._bill(caller, op, self._slow_scope(), "[slow]")

    def append(self, caller: ProcessId, datum: Any) -> int:
        self._bill_op(caller, "append", ("append", datum))
        self._notify_write()
        return self.log.append(datum)

    def bump_and_lock(self, caller: ProcessId, datum: Any, k: int) -> int:
        self._bill_op(caller, "bumpAndLock", ("bumpAndLock", datum, k))
        self._notify_write()
        return self.log.bump_and_lock(datum, k)


class ConsensusHandle:
    """A consensus object bound to the group that hosts it."""

    def __init__(
        self,
        cons: ConsensusObject,
        host_group: Group,
        charge: ChargeFn,
        guard: GuardFn = _always_available,
        gate: Optional[ConsensusGateFn] = None,
    ) -> None:
        self.cons = cons
        self.host_group = host_group
        self._charge = charge
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
        self._charge(
            billing_order(caller, self.host_group.members),
            f"{self.cons.name}.propose",
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
    """

    def __init__(
        self,
        charge: ChargeFn = _no_charge,
        guard: GuardFn = _always_available,
        isolation: bool = False,
        consensus_gate: Optional[ConsensusGateFn] = None,
        on_write: Optional[WriteFn] = None,
    ) -> None:
        self._charge = charge
        self._guard = guard
        self._consensus_gate = consensus_gate
        self._on_write = on_write
        #: §6.2 strongly-genuine configuration for intersection logs.
        self.isolation = isolation
        self._group_logs: Dict[Group, LogHandle] = {}
        self._intersection_logs: Dict[frozenset, IntersectionLogHandle] = {}
        self._consensus: Dict[Tuple[Any, Any], ConsensusHandle] = {}

    def group_log(self, g: Group) -> LogHandle:
        """``LOG_g``, carried by the members of ``g``."""
        handle = self._group_logs.get(g)
        if handle is None:
            handle = LogHandle(
                Log(f"LOG_{g.name}"),
                g.members,
                self._charge,
                self._guard,
                on_write=self._on_write,
            )
            self._group_logs[g] = handle
        return handle

    def intersection_log(self, g: Group, h: Group) -> LogHandle:
        """``LOG_{g∩h}`` (= ``LOG_g`` when ``g == h``).

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
                charge=self._charge,
                guard=self._guard,
                isolation=self.isolation,
                on_write=self._on_write,
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
                self._charge,
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
