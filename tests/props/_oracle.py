"""The delivery relations by definition: every pair, probed one by one.

``repro.props.relations`` decides Ordering on a sparse graph and builds
``~>`` by bisection; these are the dense pair-probing bodies they
replaced, kept verbatim as the reference the differential tests in
``test_delivery_order_graph.py`` compare against.  O(P·D·M) — test
records only.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from repro.model.messages import MulticastMessage
from repro.model.processes import ProcessId
from repro.model.runs import RunRecord
from repro.props.relations import Edge


def local_delivery_edges(record: RunRecord) -> Set[Edge]:
    """All pairs ``m |->_p m'`` over all processes ``p``.

    ``m |->_p m'`` holds when ``p`` belongs to both destination groups,
    delivered ``m``, and at that point had not delivered ``m'`` — which
    covers both "delivered ``m`` before ``m'``" and "delivered ``m`` and
    never ``m'``".
    """
    edges: Set[Edge] = set()
    delivered = record.delivered_messages()
    by_process: Dict[ProcessId, Sequence[MulticastMessage]] = {
        p: record.local_order(p) for p in record.processes
    }
    for p, order in by_process.items():
        seen_ids = [m.mid for m in order]
        position = {mid: i for i, mid in enumerate(seen_ids)}
        for m in order:
            for m_prime in delivered:
                if m.mid == m_prime.mid:
                    continue
                if p not in m_prime.dst or p not in m.dst:
                    continue
                later = position.get(m_prime.mid)
                if later is None or later > position[m.mid]:
                    edges.add((m.mid, m_prime.mid))
    return edges


def realtime_edges(record: RunRecord) -> Set[Edge]:
    """All pairs ``m ~> m'``: ``m`` delivered before ``m'`` multicast."""
    edges: Set[Edge] = set()
    delivered = record.delivered_messages()
    multicast = record.multicast_messages()
    for m in delivered:
        first = record.first_delivery_time(m)
        if first is None:
            continue
        for m_prime in multicast:
            if m.mid == m_prime.mid:
                continue
            sent = record.multicast_time(m_prime)
            if sent is not None and first < sent:
                edges.add((m.mid, m_prime.mid))
    return edges
