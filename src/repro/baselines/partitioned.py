"""The partitioned baseline: disjoint groups as logically correct
entities (§7; the assumption behind [32, 17, 21, 10, 31, 13, 35]).

Almost all published genuine protocols sidestep the impossibility of [26]
by decomposing the destination groups into *disjoint partitions*, each
assumed to never fail as a whole ("a logically correct entity").  This
baseline implements that architecture:

* the processes are divided into disjoint partitions; each destination
  group must be a union of partitions;
* each partition sequences messages with a partition-local logical clock
  (one consensus ring per partition in a deployment);
* a message is timestamped with the maximum across its partitions
  (a Skeen exchange between partition leaders) and delivered in global
  timestamp order.

The decisive limitation reproduced here: if a partition loses *all* its
members, every message addressed to it blocks — whereas Algorithm 1
tolerates any number of failures.  Conversely, while partitions stay
live, the protocol is genuine and orders correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import BaselineMulticast
from repro.groups.topology import GroupTopology
from repro.model.errors import TopologyError
from repro.model.failures import FailurePattern, Time
from repro.model.messages import MulticastMessage
from repro.model.processes import ProcessId, ProcessSet, pset

#: A partitioned timestamp: (clock, partition index) — totally ordered.
Stamp = Tuple[int, int]


@dataclass
class _Pending:
    message: MulticastMessage
    partitions: Tuple[int, ...]
    proposals: Dict[int, Stamp] = field(default_factory=dict)
    final: Optional[Stamp] = None


class PartitionedMulticast(BaselineMulticast):
    """Genuine atomic multicast under the disjoint-partition assumption.

    Args:
        partitions: disjoint process sets covering every group (each
            group must be a union of partitions).
    """

    def __init__(
        self,
        topology: GroupTopology,
        pattern: FailurePattern,
        partitions: Sequence[ProcessSet],
        seed: int = 0,
    ) -> None:
        super().__init__(topology, pattern, seed)
        self.partitions: Tuple[ProcessSet, ...] = tuple(
            pset(part) for part in partitions
        )
        seen: Set[ProcessId] = set()
        for part in self.partitions:
            if seen & part:
                raise TopologyError("partitions must be disjoint")
            seen |= part
        for g in topology.groups:
            covered: Set[ProcessId] = set()
            for part in self.partitions:
                if part <= g.members:
                    covered |= part
            if covered != set(g.members):
                raise TopologyError(
                    f"group {g.name} is not a union of partitions"
                )
        self._clocks: List[int] = [0] * len(self.partitions)
        self._pending: Dict[object, _Pending] = {}
        self._delivered: Set[Tuple[ProcessId, object]] = set()

    # -- Helpers ---------------------------------------------------------------------

    def _partitions_of(self, message: MulticastMessage) -> Tuple[int, ...]:
        return tuple(
            i
            for i, part in enumerate(self.partitions)
            if part <= message.dst
        )

    def _partition_alive(self, index: int) -> bool:
        return any(
            self.pattern.is_alive(p, self.time)
            for p in self.partitions[index]
        )

    # -- Protocol ----------------------------------------------------------------------------

    def _admit(self, message: MulticastMessage) -> None:
        self._pending[message.mid] = _Pending(
            message, self._partitions_of(message)
        )

    def _advance(self, t: Time) -> int:
        fired = 0
        for pending in self._pending.values():
            # Each live partition proposes once ("logically correct": the
            # whole partition must be alive to answer for the entity).
            for index in pending.partitions:
                if index in pending.proposals:
                    continue
                if not self._partition_alive(index):
                    continue  # a dead partition blocks the message
                self._clocks[index] += 1
                pending.proposals[index] = (self._clocks[index], index)
                for p in self.partitions[index]:
                    if self.pattern.is_alive(p, self.time):
                        self.record.note_step(
                            self.time, p, received="part.propose"
                        )
            if pending.final is None and set(pending.proposals) == set(
                pending.partitions
            ):
                pending.final = max(pending.proposals.values())
                for index in pending.partitions:
                    self._clocks[index] = max(
                        self._clocks[index], pending.final[0]
                    )
        # Deliver in final-stamp order per process.
        ready = sorted(
            (p for p in self._pending.values() if p.final is not None),
            key=lambda p: p.final,
        )
        for pending in ready:
            if not self._deliverable(pending):
                continue
            for p in sorted(pending.message.dst):
                key = (p, pending.message.mid)
                if key in self._delivered:
                    continue
                if not self.pattern.is_alive(p, self.time):
                    continue
                self._delivered.add(key)
                self.record.note_delivery(self.time, p, pending.message)
                self.record.note_step(self.time, p, received="part.deliver")
                fired += 1
        return fired

    def _deliverable(self, pending: _Pending) -> bool:
        for other in self._pending.values():
            if other is pending:
                continue
            if not set(other.partitions) & set(pending.partitions):
                continue
            if other.final is None:
                return False  # unfinalized sharing a partition: wait
            if other.final < pending.final:
                delivered_everywhere = all(
                    (p, other.message.mid) in self._delivered
                    or not self.pattern.is_alive(p, self.time)
                    for p in other.message.dst
                )
                if not delivered_everywhere:
                    return False
        return True

    def blocked_messages(self) -> Tuple[MulticastMessage, ...]:
        """Messages stuck behind a fully crashed partition."""
        return tuple(
            pending.message
            for pending in self._pending.values()
            if pending.final is None
        )
