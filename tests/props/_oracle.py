"""The delivery relations and the owed deliveries by definition.

``repro.props.relations`` decides Ordering on a sparse graph and builds
``~>`` by bisection; :func:`local_delivery_edges` and
:func:`realtime_edges` are the dense pair-probing bodies they replaced.
Termination, Group Parallelism, the latency metric and the runner's
success verdict read one owed-delivery set
(:meth:`repro.model.runs.RunRecord.undelivered`); the judges below are
their retired bodies, asking ``pattern.is_correct`` member by member.
All are kept verbatim as the reference the differential tests in
``test_delivery_order_graph.py`` compare against.  O(P·D·M) — test
records only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.model.messages import MulticastMessage
from repro.model.processes import ProcessId, ProcessSet
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


def owed(record: RunRecord, m: MulticastMessage) -> Set[ProcessId]:
    """The correct members of ``dst(m)`` that did not deliver ``m``."""
    pattern = record.pattern
    expected = {p for p in m.dst if pattern.is_correct(p)}
    return expected - record.delivered_by(m)


def check_termination(record: RunRecord) -> List[str]:
    """§2.2 Termination, one ``is_correct`` probe per destination member."""
    violations: List[str] = []
    pattern = record.pattern
    obligated: Dict[object, MulticastMessage] = {}
    for event in record.multicasts:
        if pattern.is_correct(event.process):
            obligated.setdefault(event.message.mid, event.message)
    for event in record.deliveries:
        obligated.setdefault(event.message.mid, event.message)
    for m in obligated.values():
        expected = {p for p in m.dst if pattern.is_correct(p)}
        got = record.delivered_by(m)
        missing = expected - got
        if missing:
            violations.append(
                f"{m.mid}: not delivered at correct members "
                f"{sorted(q.name for q in missing)}"
            )
    return violations


def check_group_parallelism(
    record: RunRecord,
    message: MulticastMessage,
    participation: ProcessSet,
) -> List[str]:
    """§6.2 Group Parallelism, one probe per destination member."""
    violations: List[str] = []
    pattern = record.pattern
    expected = {
        p for p in message.dst if pattern.is_correct(p) and p in participation
    }
    missing = expected - record.delivered_by(message)
    if missing:
        violations.append(
            f"{message.mid}: not delivered in isolation at "
            f"{sorted(q.name for q in missing)}"
        )
    return violations


def latency_of(record: RunRecord, message: MulticastMessage) -> Optional[int]:
    """Rounds from the multicast to the last delivery at a correct
    process, filtering the deliverers one ``is_correct`` probe each."""
    sent = record.multicast_time(message)
    if sent is None:
        return None
    deliverers = record.delivered_by(message)
    deliverers = [p for p in deliverers if record.pattern.is_correct(p)]
    times = [record.delivery_time(p, message) for p in deliverers]
    times = [t for t in times if t is not None]
    if not times:
        return None
    return max(times) - sent


def delivered_everywhere(
    record: RunRecord, messages: Iterable[MulticastMessage]
) -> bool:
    """Every correct destination member delivered every message."""
    for m in messages:
        wanted = {p for p in m.dst if record.pattern.is_correct(p)}
        if not wanted <= record.delivered_by(m):
            return False
    return True
