"""The non-genuine baseline: atomic multicast atop atomic broadcast (§2.3).

"To disseminate a message it suffices to broadcast it, and upon reception
only messages addressed to the local machine are delivered.  With this
approach, every process takes computational steps to deliver every
message, including the ones it is not concerned with" — this baseline is
that strategy, and exists to reproduce the scalability motivation
([33, 37]): its per-process work grows with the *total* load, not the
local load, and it fails the Minimality audit by construction.

The atomic-broadcast substrate is abstracted as a totally ordered global
log (in a deployment: one Paxos/Raft ring over all processes); each
appended message costs one step at *every* alive process — the defining
overhead of the approach.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.groups.topology import GroupTopology
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, Time
from repro.model.messages import MessageFactory, MulticastMessage
from repro.model.processes import ProcessId
from repro.model.runs import RunRecord
from repro.runtime import system_scheduler


class BroadcastMulticast:
    """Atomic multicast implemented over a global atomic broadcast.

    Same client API shape as the genuine engine: ``multicast`` then
    ``run``; the trace lands in ``record`` for the property checkers.
    """

    def __init__(
        self, topology: GroupTopology, pattern: FailurePattern, seed: int = 0
    ) -> None:
        self.topology = topology
        self.pattern = pattern
        self.record = RunRecord(topology.processes, pattern)
        self.factory = MessageFactory()
        self._order: List[MulticastMessage] = []
        self._delivered_upto = 0
        # One global sequencer actor: each round drains one slot of the
        # total order (the atomic-broadcast ring's decision granularity).
        self._scheduler = system_scheduler("abcast", self._advance, seed)
        self.tracer = self._scheduler.tracer

    @property
    def time(self) -> Time:
        return self._scheduler.time

    @property
    def last_run_quiescent(self) -> bool:
        return self._scheduler.last_run_quiescent

    def multicast(
        self, src: ProcessId, group: str, payload: object = None
    ) -> MulticastMessage:
        """Broadcast ``payload``: it enters the global total order."""
        if not self.pattern.is_alive(src, self.time):
            raise SimulationError(f"{src} is crashed and cannot multicast")
        g = self.topology.group(group)
        if src not in g:
            raise SimulationError(f"{src.name} does not belong to {group}")
        message = self.factory.multicast(src, g.members, payload)
        self.record.note_multicast(self.time, src, message)
        self._order.append(message)
        return message

    def tick(self) -> bool:
        """Process the next message of the global order.

        Every alive process takes a step for it (the non-genuine cost);
        destination members additionally deliver.  Returns whether a
        message was processed; the clock advances either way (a slot of
        the broadcast ring elapses even when nothing was proposed).
        """
        return self._scheduler.round() > 0

    def _advance(self, t: Time) -> int:
        if self._delivered_upto >= len(self._order):
            return 0
        message = self._order[self._delivered_upto]
        self._delivered_upto += 1
        for p in sorted(self.topology.processes):
            if not self.pattern.is_alive(p, t):
                continue
            self.record.note_step(t, p, received="abcast.order")
            if p in message.dst:
                self.record.note_delivery(t, p, message)
        return 1

    def run(self, max_rounds: int = 10_000) -> int:
        """Drain the global order; quiescent after one empty slot."""
        return self._scheduler.run(max_rounds, quiescent_rounds=1).rounds

    def delivered_at(self, p: ProcessId) -> Tuple[MulticastMessage, ...]:
        return self.record.local_order(p)
