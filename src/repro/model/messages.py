"""Messages and the message buffer (Appendix A).

Two kinds of "message" coexist in the paper and therefore here:

* **Application messages** (:class:`MulticastMessage`): the values that the
  atomic-multicast primitive disseminates.  Each has a sender ``src(m)``, a
  destination group ``dst(m)`` and a payload.  The dissemination model is
  closed (``src(m) ∈ dst(m)``).

* **Network datagrams** (:class:`Datagram`): the point-to-point envelopes
  that protocol automata exchange through the shared :class:`MessageBuffer`.
  A step of an automaton receives at most one datagram (possibly the null
  message) and may send new ones.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.model.errors import ModelError
from repro.model.processes import ProcessId, ProcessSet, pset


class MessageId(NamedTuple):
    """Unique identity of a multicast message.

    Ordered lexicographically: this provides the "a priori total order"
    over data items that logs use to break ties within a slot (§4.3).

    A two-field tuple, for the reason :class:`ProcessId` is a one-field
    one: ``PHASE``, the scan order and every log index are keyed by it, so
    it hashes and compares in C.  ``hash(MessageId(a, b)) == hash((a, b))``
    is pinned by ``tests/model/test_messages.py``.  A bare id is a
    record, not a message item, of a shared log
    (:func:`repro.objects.space.is_record`).
    """

    sender_index: int
    sequence: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"m(p{self.sender_index}#{self.sequence})"


class _MulticastMessageFields(NamedTuple):
    mid: MessageId
    src: ProcessId
    dst: ProcessSet
    payload: Any = None


class MulticastMessage(_MulticastMessageFields):
    """A message of the atomic-multicast problem.

    A four-field tuple, like :class:`MessageId`: hashing (pinned by
    ``tests/model/`` to ``hash((mid, src, dst, payload))``), ``==`` and
    ``<`` (decided by the unique ``mid``) are ``tuple``'s own, in C.  A
    message equals the plain 4-tuple of its fields.

    Attributes:
        mid: globally unique identity; also the log tie-break order.
        src: the sending process; must belong to ``dst``.
        dst: the destination group ``dst(m)``.
        payload: opaque application payload (the problem is not
            payload-sensitive, §2.2).
    """

    __slots__ = ()

    def __new__(
        cls, mid: MessageId, src: ProcessId, dst: ProcessSet, payload: Any = None
    ) -> "MulticastMessage":
        if src not in dst:
            raise ModelError(
                f"closed dissemination model requires src in dst: "
                f"{src} not in {sorted(dst)}"
            )
        if src.index != mid.sender_index:
            raise ModelError("message id must carry the sender index")
        return tuple.__new__(cls, (mid, src, dst, payload))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        group = ",".join(p.name for p in sorted(self.dst))
        return f"<{self.mid} to {{{group}}}>"


class MessageFactory:
    """Mints :class:`MulticastMessage` instances with unique identities.

    A single factory should be shared per run so identities never collide.
    """

    def __init__(self) -> None:
        self._counters: Dict[ProcessId, itertools.count] = {}

    def multicast(
        self, src: ProcessId, dst: Iterable[ProcessId], payload: Any = None
    ) -> MulticastMessage:
        """Create a fresh message from ``src`` to group ``dst``."""
        counter = self._counters.get(src)
        if counter is None:
            counter = self._counters[src] = itertools.count(1)
        mid = MessageId(sender_index=src.index, sequence=next(counter))
        return MulticastMessage(mid=mid, src=src, dst=pset(dst), payload=payload)


@dataclass(frozen=True, slots=True)
class Datagram:
    """A point-to-point protocol message in transit.

    Attributes:
        src: sending process.
        dst: receiving process.
        tag: protocol-level message kind (e.g. ``"PROPOSE"``).
        body: protocol-specific payload tuple (must be hashable for
            deterministic replay).
        uid: per-buffer unique id, assigned on send, so duplicates of the
            same logical message remain distinct in the buffer.
    """

    src: ProcessId
    dst: ProcessId
    tag: str
    body: Tuple[Any, ...] = ()
    uid: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.src.name}->{self.dst.name}:{self.tag}{self.body}"


#: The null message m_bot: receive attempts may return nothing.
NULL_MESSAGE: Optional[Datagram] = None


class MessageBuffer:
    """The shared buffer ``BUFF`` of sent-but-not-received datagrams.

    The buffer offers the exact semantics of Appendix A: receiving either
    removes some datagram addressed to the receiver or returns the null
    message — even when the buffer is non-empty (the scheduler decides).
    Fairness (every message addressed to a process taking infinitely many
    receive steps is eventually received) is the scheduler's obligation and
    is supported by FIFO extraction order per destination.

    With a :class:`repro.faults.injector.FaultInjector` attached the buffer models
    admissible link faults: a send may be delayed (sequestered until an
    absolute release time), duplicated (bounded extra copies) or dropped
    with a mandatory retransmission (fair-lossy links), and extraction
    within a reorder window picks among the first few receivable
    datagrams instead of strict FIFO.  Without an injector every code
    path below is byte-identical to the fault-free buffer.
    """

    def __init__(self, injector: Optional[Any] = None) -> None:
        # Per-destination FIFO queues; deques make the hot receive path
        # O(1) (the former list.pop(0) shifted the whole queue per
        # receive, quadratic in queue depth under open-loop load).
        self._pending: Dict[ProcessId, Deque[Datagram]] = {}
        self._uid = itertools.count(1)
        self.sent_count = 0
        self.received_count = 0
        self._injector = injector
        #: From this time on ``on_send`` judges every send benign, so
        #: :meth:`send` skips it (0 without an injector).
        self._links_quiet_from = (
            injector.links_quiet_from if injector is not None else 0
        )
        #: Min-heap of ``(release time, uid, datagram)`` — datagrams a
        #: link fault is holding back; invisible to :meth:`inbox` /
        #: :meth:`receive` until :meth:`release` moves them over.
        self._delayed: List[Tuple[int, int, Datagram]] = []
        self._now: int = 0
        #: Processes whose scheduler proved them parked (the kernel binds
        #: its scheduler's set here): mail is what wakes a parked process,
        #: so enqueuing a datagram removes its destination.
        self.proven_parked: Set[ProcessId] = set()

    def send(
        self,
        src: ProcessId,
        dst: ProcessId,
        tag: str,
        body: Tuple[Any, ...] = (),
    ) -> Datagram:
        """Add a datagram to the buffer and return it."""
        datagram = Datagram(src=src, dst=dst, tag=tag, body=body, uid=next(self._uid))
        self.sent_count += 1
        if dst in self.proven_parked:
            self.proven_parked.discard(dst)
        if self._now >= self._links_quiet_from:
            self._pending.setdefault(dst, deque()).append(datagram)
            return datagram
        verdict = self._injector.on_send(src.index, dst.index, self._now)
        if verdict.dropped:
            # Fair-lossy: the drop is paired with a retransmission that
            # becomes receivable when the lossy window closes.
            heapq.heappush(
                self._delayed, (verdict.retransmit_at, datagram.uid, datagram)
            )
            return datagram
        for copy in (datagram,) + tuple(
            replace(datagram, uid=next(self._uid))
            for _ in range(verdict.copies)
        ):
            if verdict.delay > 0:
                heapq.heappush(
                    self._delayed, (self._now + verdict.delay, copy.uid, copy)
                )
            else:
                self._pending.setdefault(dst, deque()).append(copy)
        return datagram

    def broadcast(
        self,
        src: ProcessId,
        dsts: Iterable[ProcessId],
        tag: str,
        body: Tuple[Any, ...] = (),
    ) -> List[Datagram]:
        """Send one copy of the datagram to every destination.

        The fault-free path mints and enqueues the whole batch inline —
        one bulk counter update, no per-copy dispatch — which is the
        shape substrate automata actually send in (round announcements to
        a full group).  With an injector every copy still goes through
        :meth:`send` so per-link fault verdicts apply.
        """
        if self._injector is not None:
            return [self.send(src, dst, tag, body) for dst in dsts]
        pending = self._pending
        proven = self.proven_parked
        uid = self._uid
        batch: List[Datagram] = []
        for dst in dsts:
            datagram = Datagram(
                src=src, dst=dst, tag=tag, body=body, uid=next(uid)
            )
            queue = pending.get(dst)
            if queue is None:
                pending[dst] = queue = deque()
            queue.append(datagram)
            batch.append(datagram)
            if dst in proven:
                proven.discard(dst)
        self.sent_count += len(batch)
        return batch

    def has_pending(self, p: ProcessId) -> bool:
        return bool(self._pending.get(p))

    def inbox(self, p: ProcessId) -> Deque[Datagram]:
        """The live queue of datagrams receivable by ``p``, for reading
        only: the buffer keeps this very deque for ``p`` from now on, so
        a holder tests ``p``'s mail without a call."""
        return self._pending.setdefault(p, deque())

    def receive(self, p: ProcessId) -> Optional[Datagram]:
        """Remove and return the oldest datagram addressed to ``p``.

        Returns the null message when nothing is pending.  FIFO extraction
        makes the standard fairness condition easy for schedulers to honor.
        Inside an active reorder window the injector may pick among the
        first few receivable datagrams instead — bounded, so the fairness
        condition still holds (every datagram drifts to the queue head).
        """
        queue = self._pending.get(p)
        if not queue:
            return NULL_MESSAGE
        self.received_count += 1
        if self._injector is None:
            return queue.popleft()
        index = self._injector.pick_receive(p.index, len(queue), self._now)
        if index == 0:
            return queue.popleft()
        datagram = queue[index]
        del queue[index]
        return datagram

    def drop_all_for(self, p: ProcessId) -> int:
        """Discard every datagram addressed to ``p`` (crashed processes
        never receive) — including datagrams a link fault is still
        holding back.  Leaving delayed entries behind would let
        :meth:`release` push them into a dead process's queue later,
        where no step would ever drain them and the buffer would never
        read as empty.
        Returns the number of dropped datagrams (pending + sequestered)."""
        # Emptied in place: an :meth:`inbox` holder keeps reading it.
        queue = self._pending.get(p)
        dropped = len(queue) if queue else 0
        if dropped:
            queue.clear()
        if self._delayed:
            kept = [entry for entry in self._delayed if entry[2].dst != p]
            purged = len(self._delayed) - len(kept)
            if purged:
                heapq.heapify(kept)
                self._delayed = kept
                dropped += purged
        return dropped

    def release(self, now: int) -> int:
        """Move delayed datagrams whose release time has arrived.

        Hosts with an injector call this at the top of every round
        (before crash cleanup, so a release to a dead process is still
        dropped the same round it lands).  Returns the number released.
        """
        self._now = now
        released = 0
        while self._delayed and self._delayed[0][0] <= now:
            _, _, datagram = heapq.heappop(self._delayed)
            self._pending.setdefault(datagram.dst, deque()).append(datagram)
            self.proven_parked.discard(datagram.dst)
            released += 1
        return released

    def delayed_count(self) -> int:
        """Datagrams currently sequestered by link faults."""
        return len(self._delayed)
