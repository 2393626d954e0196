"""A replicated log via a sequence of consensus instances (§4.3).

The group logs ``LOG_g`` of Algorithm 1 are "built atop consensus in ``g``
using a universal construction [28]".  This module is that construction
at the message-passing level: an unbounded list of consensus slots, each
decided by a :class:`repro.substrates.consensus.ConsensusAutomaton`
instance over the carrier scope.  A consensus value is opaque to the
protocol, so a slot decides a *batch*: the tuple of everything queued at
the replica that opened it.  A replica drives its head slot only — the
first undecided one — and applies decided slots in order, each value at
most once, yielding identical log prefixes at every member
(state-machine replication).

``Omega_g`` is what keeps the log gap-free when a proposer dies: the
replica it names leader proposes the empty batch in a head slot it knows
open and holds no proposal in (an ordinary ballot, so phase 1 adopts
whatever was accepted), and a replica whose ``Omega_g`` output moves
while its head is open asks the new leader, which has decided the slot
or takes it over.  Both are enabled by the detector's output, never by a
clock, and a failure-free run executes neither.  A replica that only
waits — for a datagram, under the sample of its last step — says so
through :meth:`ReplicatedLogAutomaton.idle` and takes no step until one
of the two changes.  DESIGN.md §16 "What a slot costs" has the ledger
and the arguments.

The contention-free fast path of Proposition 47 (adopt–commit before
consensus) is exercised separately in
:mod:`repro.substrates.adopt_commit`; here every slot runs the full
consensus, which is the slow-path cost the fast path avoids.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.model.failures import FailurePattern, Time
from repro.model.messages import Datagram
from repro.model.processes import ProcessId, ProcessSet
from repro.sim.kernel import Automaton, Context
from repro.sim.kernel import snapshot_hash  # noqa: F401 - re-export
from repro.substrates.consensus import (
    ConsensusAutomaton,
    Membership,
    OmegaSigmaSampler,
    check_policy,
)


class ReplicatedLogAutomaton(Automaton):
    """Per-process code: a queue of appends in front of consensus slots.

    Each slot multiplexes a full :class:`ConsensusAutomaton` over tagged
    datagrams (``slot`` is prepended to every message body); only the
    head slot is ever proposed in.  Opening it proposes the whole queue
    as one batch — no size cap and no linger timer: a batch is whatever
    arrived while the previous slot was deciding.  ``CATCHUP`` and
    ``FORWARD`` are the log's own messages: a non-leader's batch joins
    the receiver's queue rather than contending for the sender's slot,
    and ``CATCHUP(next_slot, horizon)`` — from a rejoined replica to
    everyone, from a replica whose leader changed to the new one — asks
    for the decisions from ``next_slot`` on and names the slots its
    sender knows open.
    """

    def __init__(
        self,
        pid: ProcessId,
        scope: ProcessSet,
        supersede: str = "abandon",
        retransmit_interval: Optional[int] = None,
    ) -> None:
        # Here, not at the first slot: a bad argument must fail the
        # construction, not a step in the middle of a run.
        check_policy(supersede, retransmit_interval)
        self.pid = pid
        #: One sorted scope and one "everyone else" sequence, shared by
        #: every slot's automaton.
        self._membership = Membership.of(pid, scope)
        self.scope = self._membership.members
        self.supersede = supersede
        self.retransmit_interval = retransmit_interval
        self._slots: Dict[int, ConsensusAutomaton] = {}
        self._pending: List[Any] = []
        self.applied: List[Any] = []
        #: The decided batch of every applied slot (``_next_slot`` of
        #: them), and the values of ``applied`` as a set: a value is
        #: applied at most once however many batches repeat it.
        self._batches: List[Tuple[Any, ...]] = []
        self._applied_values: Set[Any] = set()
        self._next_slot = 0
        #: Set by :meth:`restore`: the rejoined replica must ask its
        #: peers for decisions that completed around its crash window.
        self._catchup_needed = False
        #: The highest slot this replica knows someone opened: it holds
        #: an instance of it (its own, a datagram's, or restored
        #: acceptor state) or a peer's ``CATCHUP`` named it.  The head is
        #: *known open* while ``_next_slot <= _horizon``.
        self._horizon = -1
        #: The detector sample of the last step (volatile): ``idle`` is
        #: relative to it, and ``Omega`` *moved* when a step's differs.
        self._sample: Dict[str, Any] = {}
        #: One reusable slot-context view, rebound per call — the kernel
        #: steps this automaton once per process per round, and a fresh
        #: wrapper allocation per step showed up in profiles.
        self._slot_ctx = _SlotContext()

    def append(self, value: Any) -> None:
        """Client call: replicate ``value`` — queued until a slot carries
        it, applied at most once at every replica (values are identities
        and must be hashable: one appended twice is still applied once)."""
        self._pending.append(value)

    # -- Durable state (crash–recovery) ----------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Durable replica state: the applied prefix, the decided batch
        of every applied slot, the queue, plus every slot's acceptor
        state (see :meth:`ConsensusAutomaton.snapshot`)."""
        return {
            "next_slot": self._next_slot,
            "applied": list(self.applied),
            "batches": list(self._batches),
            "pending": list(self._pending),
            "slots": {
                slot: automaton.snapshot()
                for slot, automaton in sorted(self._slots.items())
            },
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Rejoin from :meth:`snapshot`.

        The applied prefix and ``next_slot`` come back as-is, so a
        recovered replica never re-emits ``applied`` outputs it already
        produced (no duplicate deliveries); each slot's consensus
        automaton restores its durable half and restarts its proposer.

        The rejoined replica also schedules a one-shot ``CATCHUP``
        broadcast (sent on its first post-rejoin step, when it has a
        context): a decision that completed just *before* the crash may
        have had its ``DECIDE`` datagram dropped with the crash, and
        with every peer already decided nobody will ever re-send it —
        the laggard would wait on the slot forever.  Peers answer with
        plain slot-tagged ``DECIDE`` messages, which are idempotent, so
        the exchange is safe to duplicate and the host's fair-lossy
        buffer makes it reliable.
        """
        self._catchup_needed = True
        self._horizon = -1
        self._sample = {}
        self._next_slot = int(snapshot["next_slot"])
        self.applied = list(snapshot["applied"])
        self._applied_values = set(self.applied)
        self._batches = list(snapshot["batches"])
        self._pending = list(snapshot["pending"])
        self._slots = {}
        for slot, state in snapshot["slots"].items():
            self._slot(int(slot)).restore(state)

    def idle(self) -> bool:
        """A null step under the last step's sample would change nothing.

        Such a step only drives the head slot, which the apply loop left
        absent or undecided.  With no proposal there it would open one —
        for what is queued, or as the ``Omega`` leader of a head known
        open (:meth:`_take_over`) — and otherwise wait; with one it is
        the consensus instance's call
        (:meth:`ConsensusAutomaton.awaits_mail`).  Slots past the head
        move on receipt only.  A freshly rejoined replica is never idle:
        its first step must send the catch-up request.
        """
        if self._catchup_needed:
            return False
        head = self._slots.get(self._next_slot)
        if head is None or head.proposal is None:
            return not self._pending and not (
                self._next_slot <= self._horizon
                and self._sample.get("omega") == self.pid
            )
        return head.awaits_mail(self._sample)

    def _slot(self, index: int) -> ConsensusAutomaton:
        automaton = self._slots.get(index)
        if automaton is None:
            automaton = self._slots[index] = ConsensusAutomaton(
                self.pid,
                self._membership,
                supersede=self.supersede,
                retransmit_interval=self.retransmit_interval,
            )
            if index > self._horizon:
                self._horizon = index
        return automaton

    def _take_over(self) -> ConsensusAutomaton:
        """``Omega`` names this replica and its head is open with no
        proposal of its own: whoever drove the slot is gone.  Propose
        the no-op batch there, under an ordinary ballot — phase 1 adopts
        whatever an acceptor holds, so the log stays gap-free."""
        head = self._slot(self._next_slot)
        head.propose(())
        return head

    def on_step(self, ctx: Context, datagram: Optional[Datagram]) -> None:
        slot_ctx = self._slot_ctx
        sample = ctx.detector or {}
        leader = sample.get("omega")
        last_leader = self._sample.get("omega")
        self._sample = sample
        if self._catchup_needed:
            # First post-rejoin step: ask every peer for decisions made
            # around the crash window.  One shot suffices — the host
            # buffer is fair-lossy, so a dropped request is re-enqueued.
            self._catchup_needed = False
            if self._membership.others:
                ctx.broadcast(
                    self._membership.others,
                    "CATCHUP",
                    self._next_slot,
                    self._horizon,
                )
        tag = None if datagram is None else datagram.tag
        if tag == "CATCHUP":
            # Log-level request (no slot prefix): replay our applied
            # decisions from the requested slot on as ordinary DECIDE
            # messages — idempotent at the laggard, and exactly what the
            # decider's own broadcast would have delivered.  The slots
            # the laggard knows open and we have not decided are ours to
            # take over, now or when ``Omega`` names us.
            from_slot, horizon = datagram.body
            for slot_index in range(from_slot, self._next_slot):
                ctx.send(
                    datagram.src, "DECIDE", slot_index,
                    self._batches[slot_index],
                )
            if horizon > self._horizon:
                self._horizon = horizon
        elif tag == "FORWARD":
            # Log-level too: a non-leader's batch joins this replica's
            # queue and rides the next slot it opens (or its own next
            # forward), whatever slot the sender was at.  Validity holds
            # (some member appended every value); a value that ends up in
            # two batches is dropped at apply.
            for value in datagram.body[1]:
                if (
                    value not in self._applied_values
                    and value not in self._pending
                ):
                    self._pending.append(value)
        elif tag is not None:
            slot_index = datagram.body[0]
            slot_ctx.bind(ctx, slot_index)
            self._slot(slot_index)._handle(
                slot_ctx, datagram.src, tag, datagram.body[1:]
            )
        # Drive the current head slot: opening it proposes everything
        # queued as one batch, and it keeps progressing while undecided.
        head = self._slots.get(self._next_slot)
        if head is not None and head.proposal == () and leader != self.pid:
            # The no-op is the leader's to propose, not a value to
            # forward: demoted, this replica is a learner again.
            head.withdraw()
        if head is None or head.proposal is None:
            if self._pending:
                head = self._slot(self._next_slot)
                head.propose(tuple(self._pending))
            elif leader == self.pid and self._next_slot <= self._horizon:
                head = self._take_over()
        if head is not None and head.decision is None:
            slot_ctx.bind(ctx, self._next_slot)
            head._progress(slot_ctx)
        # Apply decided slots in order, each value at most once.
        while True:
            head = self._slots.get(self._next_slot)
            if head is None or head.decision is None:
                break
            batch = head.decision
            self._batches.append(batch)
            for value in batch:
                if value not in self._applied_values:
                    self._applied_values.add(value)
                    ctx.output(("applied", len(self.applied), value))
                    self.applied.append(value)
            self._pending = [
                value
                for value in self._pending
                if value not in self._applied_values
            ]
            self._next_slot += 1
        if (
            leader != last_leader
            and last_leader is not None
            and leader not in (None, self.pid)
            and self._next_slot <= self._horizon
        ):
            # ``Omega`` moved while the head is open: whoever was to
            # send its DECIDE may be gone, so ask the new leader, which
            # has decided the slot or takes it over.
            ctx.send(leader, "CATCHUP", self._next_slot, self._horizon)


class _SlotContext:
    """A context view that prefixes every message with its slot index.

    Rebindable: the replicated-log automaton keeps one instance and
    re-points it at the current step context and slot (the view is only
    used synchronously within one ``_handle``/``_progress`` call).
    """

    __slots__ = ("_ctx", "_slot", "pid", "time", "detector")

    def __init__(
        self, ctx: Optional[Context] = None, slot: int = 0
    ) -> None:
        self._ctx = ctx
        self._slot = slot
        self.pid = ctx.pid if ctx is not None else None
        self.time = ctx.time if ctx is not None else 0
        self.detector = ctx.detector if ctx is not None else None

    def bind(self, ctx: Context, slot: int) -> None:
        self._ctx = ctx
        self._slot = slot
        self.pid = ctx.pid
        self.time = ctx.time
        self.detector = ctx.detector

    def send(self, dst: ProcessId, tag: str, *body: Any) -> None:
        self._ctx.send(dst, tag, self._slot, *body)

    def broadcast(self, dsts, tag: str, *body: Any) -> None:
        # One batched buffer call (the buffer mints uids in destination
        # order, identical to per-destination sends).
        self._ctx.broadcast(dsts, tag, self._slot, *body)

    def output(self, value: Any) -> None:
        self._ctx.output((self._slot, value))


class ReplicatedLogCluster:
    """One replicated log over a scope, with its detector samplers."""

    def __init__(
        self,
        pattern: FailurePattern,
        scope: ProcessSet,
        omega_stabilization: Optional[Time] = None,
        supersede: str = "abandon",
        retransmit_interval: Optional[int] = None,
    ) -> None:
        self.scope = scope
        self.automata: Dict[ProcessId, ReplicatedLogAutomaton] = {
            p: ReplicatedLogAutomaton(
                p,
                scope,
                supersede=supersede,
                retransmit_interval=retransmit_interval,
            )
            for p in sorted(scope)
        }
        kwargs = {}
        if omega_stabilization is not None:
            kwargs["stabilization_time"] = omega_stabilization
        self.detectors: Dict[ProcessId, OmegaSigmaSampler] = {
            p: OmegaSigmaSampler(pattern, scope, **kwargs)
            for p in sorted(scope)
        }

    def append(self, p: ProcessId, value: Any) -> None:
        self.automata[p].append(value)

    def applied_at(self, p: ProcessId) -> Tuple[Any, ...]:
        return tuple(self.automata[p].applied)
