"""Strongly genuine delivery orders from spanning trees (§7).

The paper's closing discussion sketches how strongly genuine atomic
multicast is failure-free solvable even when ``F ≠ ∅``: fix a spanning
tree ``T`` of the intersection graph (one per connected component) and
deliver each message across its intersections following the tree order
``<_T``; a fault-tolerant version would use
``mu ∧ (∧ Omega_{g∩h}) ∧ (∧_{g,h∈F} 1^{g∩h})`` — conjectured weakest.

This module implements the failure-free sketch as an executable protocol:

* :func:`spanning_tree_order` — a deterministic spanning forest of the
  intersection graph with the induced total pre-order on groups;
* :class:`SpanningTreeMulticast` — per message, timestamps are assigned
  per group following the tree order (parent intersections first), and
  delivery follows the resulting lexicographic order.  Each group
  progresses as soon as its tree ancestors have stamped — in particular
  disjoint subtrees progress in isolation, the strong-genuineness gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.base import BaselineMulticast
from repro.groups.families import intersection_adjacency
from repro.groups.topology import Group, GroupTopology
from repro.model.failures import FailurePattern, Time
from repro.model.messages import MulticastMessage


def spanning_tree_order(
    topology: GroupTopology,
) -> Tuple[Dict[Group, int], Dict[Group, Optional[Group]]]:
    """A deterministic spanning forest of the intersection graph.

    Returns ``(rank, parent)``: a BFS numbering per connected component
    (roots first — the order ``<_T``) and each group's tree parent.
    """
    adjacency = intersection_adjacency(topology.groups)
    rank: Dict[Group, int] = {}
    parent: Dict[Group, Optional[Group]] = {}
    counter = 0
    for root in topology.groups:
        if root in rank:
            continue
        parent[root] = None
        queue = [root]
        while queue:
            current = queue.pop(0)
            if current in rank:
                continue
            rank[current] = counter
            counter += 1
            for neighbor in sorted(adjacency[current]):
                if neighbor not in rank and neighbor not in queue:
                    parent[neighbor] = current
                    queue.append(neighbor)
    return rank, parent


@dataclass
class _Pending:
    message: MulticastMessage
    group: Group
    stamp: Optional[Tuple[int, int]] = None


class SpanningTreeMulticast(BaselineMulticast):
    """Failure-free strongly genuine atomic multicast (§7 sketch).

    Each group ``g`` owns a logical clock; a message to ``g`` is stamped
    ``(clock_g, rank_T(g))`` once every message to a ``<_T``-smaller
    *intersecting* group already in flight has been stamped — delivery
    then follows stamps.  Because groups in different subtrees never wait
    on each other, a group whose subtree is idle delivers in isolation.
    """

    def __init__(
        self, topology: GroupTopology, pattern: FailurePattern, seed: int = 0
    ) -> None:
        super().__init__(topology, pattern, seed)
        self.rank, _ = spanning_tree_order(topology)
        self._clock = 0
        self._pending: List[_Pending] = []

    def _admit(self, message: MulticastMessage) -> None:
        self._pending.append(
            _Pending(message, self.topology.group_with_members(message.dst))
        )

    def _may_stamp(self, pending: _Pending) -> bool:
        """Tree discipline: wait for unstamped messages at intersecting
        groups of strictly smaller tree rank."""
        for other in self._pending:
            if other is pending or other.stamp is not None:
                continue
            if not other.group.intersects(pending.group):
                continue
            if self.rank[other.group] < self.rank[pending.group]:
                return False
        return True

    def _advance(self, t: Time) -> int:
        fired = 0
        for pending in sorted(
            self._pending, key=lambda item: self.rank[item.group]
        ):
            if pending.stamp is None and self._may_stamp(pending):
                self._clock += 1
                pending.stamp = (self._clock, self.rank[pending.group])
                for p in pending.group.members:
                    if self.pattern.is_alive(p, t):
                        self.record.note_step(t, p, received="tree.stamp")
                fired += 1
        return fired + self._deliver_in_stamp_order(
            t,
            self._pending,
            lambda a, b: a.group.intersects(b.group),
            "tree.deliver",
        )
