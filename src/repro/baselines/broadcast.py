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

from typing import Callable, List, Optional

from repro.baselines.base import BaselineMulticast
from repro.groups.topology import GroupTopology
from repro.model.failures import FailurePattern, Time
from repro.model.messages import MulticastMessage


class BroadcastMulticast(BaselineMulticast):
    """Atomic multicast implemented over a global atomic broadcast.

    One global sequencer: each round drains one slot of the total order
    (the atomic-broadcast ring's decision granularity), and the clock
    advances even when nothing was proposed.
    """

    def __init__(
        self, topology: GroupTopology, pattern: FailurePattern, seed: int = 0
    ) -> None:
        super().__init__(topology, pattern, seed)
        self._order: List[MulticastMessage] = []
        self._delivered_upto = 0

    def _admit(self, message: MulticastMessage) -> None:
        """Broadcast: the message enters the global total order."""
        self._order.append(message)

    def _advance(self, t: Time) -> int:
        """Process the next message of the global order.

        Every alive process takes a step for it (the non-genuine cost);
        destination members additionally deliver.
        """
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

    def run(
        self,
        max_rounds: int = 10_000,
        quiescent_rounds: int = 1,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Drain the global order; quiescent after one empty slot."""
        return super().run(max_rounds, quiescent_rounds, stop_when)
