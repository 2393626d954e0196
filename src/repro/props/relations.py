"""The delivery relations of the paper (§2.2, §6.1, §7).

Builds, from a :class:`repro.model.RunRecord`:

* the local delivery order ``m |->_p m'`` — ``p`` (in both destination
  groups) delivered ``m`` at a time when it had not delivered ``m'``;
* the global delivery relation ``|->`` (union over processes), as a
  sparse graph with the same reachability rather than pair by pair;
* the real-time relation ``m ~> m'`` — ``m`` was delivered (somewhere)
  before ``m'`` was multicast.

The last two are returned as edge sets over message ids together with
a cycle oracle, which is what the Ordering / Strict Ordering checkers
consume.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.model.messages import MessageId
from repro.model.processes import ProcessId
from repro.model.runs import RunRecord

#: A directed edge between message ids.
Edge = Tuple[MessageId, MessageId]


def delivery_order_graph(record: RunRecord) -> Set[Edge]:
    """A sparse graph with the same reachability as ``|->``.

    ``m |->_p m'`` holds when ``p`` belongs to both destination groups,
    delivered ``m``, and at that point had not delivered ``m'``.  Each
    ``|->_p`` is transitive, so per process it is enough to chain the
    messages ``p`` delivered (by last delivery, should ``p`` deliver one
    twice) and to point the last of them at every message addressed to
    ``p`` that ``p`` never delivered.  Every edge here is a ``|->`` edge
    and every ``|->`` edge is a path here: the two have the same cycles.
    """
    addressed: Dict[ProcessId, List[MessageId]] = {}
    for m in record.delivered_messages():
        for p in m.dst:
            addressed.setdefault(p, []).append(m.mid)
    edges: Set[Edge] = set()
    for p in record.processes:
        position = {m.mid: i for i, m in enumerate(record.local_order(p))}
        mine = addressed.get(p, ())
        chain = sorted(
            (mid for mid in mine if mid in position), key=position.get
        )
        edges.update(zip(chain, chain[1:]))
        if chain:
            edges.update(
                (chain[-1], mid) for mid in mine if mid not in position
            )
    return edges


def realtime_edges(record: RunRecord) -> Set[Edge]:
    """All pairs ``m ~> m'``: ``m`` delivered before ``m'`` multicast."""
    multicast = sorted(record.multicast_messages(), key=record.multicast_time)
    sent = [record.multicast_time(m) for m in multicast]
    edges: Set[Edge] = set()
    for m in record.delivered_messages():
        after = bisect_right(sent, record.first_delivery_time(m))
        edges.update(
            (m.mid, later.mid)
            for later in multicast[after:]
            if later.mid != m.mid
        )
    return edges


def find_cycle(edges: Iterable[Edge]) -> Optional[List[MessageId]]:
    """A cycle in the directed graph, or ``None`` when acyclic.

    Returns the cycle as a vertex list ``[v0, v1, ..., v0]``.
    """
    adjacency: Dict[MessageId, List[MessageId]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, [])

    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[MessageId, int] = {v: WHITE for v in adjacency}
    parent: Dict[MessageId, Optional[MessageId]] = {}

    for root in adjacency:
        if color[root] != WHITE:
            continue
        stack: List[Tuple[MessageId, Iterable[MessageId]]] = [
            (root, iter(adjacency[root]))
        ]
        color[root] = GRAY
        parent[root] = None
        while stack:
            vertex, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == WHITE:
                    color[child] = GRAY
                    parent[child] = vertex
                    stack.append((child, iter(adjacency[child])))
                    advanced = True
                    break
                if color[child] == GRAY:
                    # Found a back-edge: reconstruct the cycle.
                    cycle = [child, vertex]
                    walker = parent[vertex]
                    while walker is not None and cycle[-1] != child:
                        cycle.append(walker)
                        walker = parent.get(walker)
                    if cycle[-1] != child:
                        cycle.append(child)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[vertex] = BLACK
                stack.pop()
        # fall through: this component is acyclic.
    return None
