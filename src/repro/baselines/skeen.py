"""Skeen's algorithm [5, 22]: the failure-free genuine classic.

The original timestamp-based protocol that Algorithm 1 generalizes:

1. the sender sends the message to its destination group;
2. every destination member replies with a *proposed timestamp* (its
   logical clock, bumped past everything proposed so far);
3. the sender picks the maximum and announces the *final timestamp*;
4. members deliver messages in final-timestamp order, once no message
   with a smaller (proposed or final) timestamp is outstanding.

This is the ``bump to the highest position`` procedure of §4.2 without
fault tolerance: if any destination member crashes mid-protocol, the
message (and everything ordered after it) blocks forever — the gap that
motivates ``mu``.  The implementation is message-granular over three
logical phases per message and charges steps exactly to the destination
members, so it is genuine and passes the Minimality audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.baselines.base import BaselineMulticast
from repro.groups.topology import GroupTopology
from repro.model.failures import FailurePattern, Time
from repro.model.messages import MulticastMessage
from repro.model.processes import ProcessId

#: A Skeen timestamp: (clock value, proposer index) — totally ordered.
SkeenStamp = Tuple[int, int]


@dataclass
class _MessageState:
    message: MulticastMessage
    proposals: Dict[ProcessId, SkeenStamp] = field(default_factory=dict)
    final: Optional[SkeenStamp] = None


class SkeenMulticast(BaselineMulticast):
    """Failure-free genuine atomic multicast (Skeen's protocol).

    ``run`` executes the three phases round by round; if a destination
    member crashes before phase 2 completes, the message stays pending —
    ``blocked_messages`` reports them, reproducing the motivation for the
    paper's fault-tolerant generalization.
    """

    def __init__(
        self, topology: GroupTopology, pattern: FailurePattern, seed: int = 0
    ) -> None:
        super().__init__(topology, pattern, seed)
        self._clocks: Dict[ProcessId, int] = {
            p: 0 for p in topology.processes
        }
        self._states: Dict[object, _MessageState] = {}

    def _admit(self, message: MulticastMessage) -> None:
        """Phase 1: the sender sends the message to its group."""
        self._states[message.mid] = _MessageState(message)
        self.record.note_step(self.time, message.src, received="skeen.send")

    # -- Protocol phases --------------------------------------------------------------

    def _collect_proposals(self, state: _MessageState) -> None:
        """Phase 2: destination members propose timestamps."""
        for p in sorted(state.message.dst):
            if p in state.proposals:
                continue
            if not self.pattern.is_alive(p, self.time):
                continue  # a dead member never proposes: the gap
            self._clocks[p] += 1
            state.proposals[p] = (self._clocks[p], p.index)
            self.record.note_step(self.time, p, received="skeen.propose")

    def _finalize(self, state: _MessageState) -> None:
        """Phase 3: the sender announces max(proposals)."""
        message = state.message
        if state.final is not None or not self.pattern.is_alive(
            message.src, self.time
        ):
            return
        if set(state.proposals) >= set(message.dst):
            state.final = max(state.proposals.values())
            self.record.note_step(
                self.time, message.src, received="skeen.final"
            )
            # Members fast-forward their clocks past the final stamp.
            for p in message.dst:
                self._clocks[p] = max(self._clocks[p], state.final[0])

    def _deliverable(self, p: ProcessId, state: _MessageState) -> bool:
        """Deliver in final-stamp order: nothing smaller outstanding."""
        if state.final is None or p not in state.message.dst:
            return False
        for other in self._states.values():
            if other is state or p not in other.message.dst:
                continue
            if other.final is None:
                floor = other.proposals.get(p)
                if floor is not None and floor < state.final:
                    return False  # a smaller proposal might finalize lower
                if floor is None:
                    return False  # not yet proposed: could order anywhere
            elif other.final < state.final and (
                (p, other.message.mid) not in self._delivered
            ):
                return False
        return True

    def _advance(self, t: Time) -> int:
        fired = 0
        for state in list(self._states.values()):
            self._collect_proposals(state)
            self._finalize(state)
        for state in sorted(
            self._states.values(),
            key=lambda s: (s.final is None, s.final or (0, 0)),
        ):
            for p in sorted(state.message.dst):
                key = (p, state.message.mid)
                if key in self._delivered:
                    continue
                if not self.pattern.is_alive(p, self.time):
                    continue
                if self._deliverable(p, state):
                    self._delivered.add(key)
                    self.record.note_delivery(self.time, p, state.message)
                    self.record.note_step(
                        self.time, p, received="skeen.deliver"
                    )
                    fired += 1
        return fired

    # -- Introspection --------------------------------------------------------------------

    def blocked_messages(self) -> Tuple[MulticastMessage, ...]:
        """Messages some correct member will never deliver (the gap)."""
        blocked = []
        for state in self._states.values():
            expected = {
                p
                for p in state.message.dst
                if self.pattern.is_correct(p)
            }
            got = self.record.delivered_by(state.message)
            if expected - got:
                blocked.append(state.message)
        return tuple(blocked)
