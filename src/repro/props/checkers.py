"""Executable correctness properties of atomic multicast.

Each checker inspects a finished :class:`repro.model.runs.RunRecord` and
returns a list of violations (empty = the property holds on this run):

* :func:`check_integrity` — §2.2 Integrity;
* :func:`check_termination` — §2.2 Termination (on quiescent runs);
* :func:`check_ordering` — §2.2 Ordering (acyclicity of ``|->``);
* :func:`check_strict_ordering` — §6.1 Strict Ordering
  (acyclicity of ``|-> ∪ ~>``);
* :func:`check_pairwise_ordering` — §7 Pairwise Ordering;
* :func:`check_minimality` — §2.3 Minimality (genuineness audit);
* :func:`check_group_parallelism` — §6.2 Group Parallelism, for runs
  executed under a participation set.

:data:`BATCH_CHECKS` lists the properties every run owes (§2.2 plus
Minimality), once: :func:`repro.props.batch.batch_verdicts` counts their
violations for a sweep row, and :func:`assert_run_ok` raises
:class:`repro.model.errors.PropertyViolation` on the first failure — the
idiom used throughout the test-suite.  The quantifier over the correct
members of ``dst(m)`` is :meth:`RunRecord.undelivered`, for Termination
and Group Parallelism alike.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from repro.model.errors import PropertyViolation
from repro.model.messages import MulticastMessage
from repro.model.processes import ProcessId, ProcessSet
from repro.model.runs import RunRecord
from repro.props.relations import (
    delivery_order_graph,
    find_cycle,
    realtime_edges,
)


def check_integrity(record: RunRecord) -> List[str]:
    """§2.2 Integrity: deliver at most once, only members, only multicast."""
    violations: List[str] = []
    multicast_ids = {m.mid for m in record.multicast_messages()}
    for event in record.deliveries:
        m = event.message
        if event.process not in m.dst:
            violations.append(
                f"{event.process.name} delivered {m.mid} but is not in dst"
            )
        if m.mid not in multicast_ids:
            violations.append(f"{m.mid} delivered but never multicast")
    for p in record.processes:
        seen: Set[object] = set()
        for m in record.local_order(p):
            if m.mid in seen:
                violations.append(f"{p.name} delivered {m.mid} twice")
            seen.add(m.mid)
    return violations


def check_termination(record: RunRecord) -> List[str]:
    """§2.2 Termination, evaluated on a quiescent run.

    For every message multicast by a correct process, or delivered by any
    process, every correct member of the destination group must have
    delivered it by the end of the run.
    """
    violations: List[str] = []
    faulty = record.faulty
    obligated: Dict[object, MulticastMessage] = {}
    for event in record.multicasts:
        if event.process not in faulty:
            obligated.setdefault(event.message.mid, event.message)
    for event in record.deliveries:
        obligated.setdefault(event.message.mid, event.message)
    for m in obligated.values():
        missing = record.undelivered(m)
        if missing:
            violations.append(
                f"{m.mid}: not delivered at correct members "
                f"{sorted(q.name for q in missing)}"
            )
    return violations


def check_ordering(record: RunRecord) -> List[str]:
    """§2.2 Ordering: the delivery relation ``|->`` is acyclic."""
    cycle = find_cycle(delivery_order_graph(record))
    if cycle is None:
        return []
    pretty = " |-> ".join(str(mid) for mid in cycle)
    return [f"delivery cycle: {pretty}"]


def check_strict_ordering(record: RunRecord) -> List[str]:
    """§6.1 Strict Ordering: ``|-> ∪ ~>`` is acyclic."""
    edges = delivery_order_graph(record) | realtime_edges(record)
    cycle = find_cycle(edges)
    if cycle is None:
        return []
    pretty = " < ".join(str(mid) for mid in cycle)
    return [f"strict-order cycle: {pretty}"]


def check_pairwise_ordering(record: RunRecord) -> List[str]:
    """§7 Pairwise Ordering: if ``p`` delivers ``m`` then ``m'``, every
    process delivering ``m'`` delivered ``m`` before."""
    violations: List[str] = []
    orders = {p: record.local_order(p) for p in record.processes}
    indices = {
        q: {x.mid: j for j, x in enumerate(q_order)}
        for q, q_order in orders.items()
    }
    for p, order in orders.items():
        for i, m in enumerate(order):
            for m_prime in order[i + 1 :]:
                for q, index_q in indices.items():
                    if m_prime.mid not in index_q:
                        continue
                    pos_m = index_q.get(m.mid)
                    if q in m.dst and (
                        pos_m is None or pos_m > index_q[m_prime.mid]
                    ):
                        violations.append(
                            f"{p.name} delivered {m.mid} then {m_prime.mid} "
                            f"but {q.name} delivered {m_prime.mid} without "
                            f"{m.mid} first"
                        )
    return violations


def check_minimality(record: RunRecord) -> List[str]:
    """§2.3 Minimality: a correct process takes steps only when some
    multicast message is addressed to it."""
    violations: List[str] = []
    faulty = record.faulty
    addressed: Set[ProcessId] = set()
    for m in record.multicast_messages():
        addressed |= set(m.dst)
    for p, steps in record.step_counts().items():
        if steps > 0 and p not in faulty and p not in addressed:
            violations.append(
                f"{p.name} took {steps} steps but no message is addressed "
                f"to it"
            )
    return violations


def check_group_parallelism(
    record: RunRecord,
    message: MulticastMessage,
    participation: ProcessSet,
) -> List[str]:
    """§6.2 Group Parallelism, for a run fair exactly for ``participation``.

    With ``P = Correct ∩ dst(m)`` scheduled (and the run quiescent), every
    process of ``P`` must have delivered ``m``.
    """
    violations: List[str] = []
    missing = record.undelivered(message).intersection(participation)
    if missing:
        violations.append(
            f"{message.mid}: not delivered in isolation at "
            f"{sorted(q.name for q in missing)}"
        )
    return violations


#: One checker per correctness property every run is accountable to.
Checker = Callable[[RunRecord], List[str]]

#: The properties of genuine atomic multicast (§2.2 plus Minimality,
#: §2.3), in the order they are judged.
BATCH_CHECKS: Tuple[Tuple[str, Checker], ...] = (
    ("integrity", check_integrity),
    ("termination", check_termination),
    ("ordering", check_ordering),
    ("minimality", check_minimality),
)


def assert_run_ok(record: RunRecord) -> None:
    """Raise :class:`PropertyViolation` for the first of
    :data:`BATCH_CHECKS` the run fails, named as the paper names it
    ("Integrity", ...), with every violation as evidence.

    It judges the record alone: a spec variant's extra checks
    (``strict_ordering`` for "strict") are not run, and a run cut off by
    its round budget is not refused — a caller with a
    :class:`~repro.workloads.runner.ScenarioResult` asserts ``not
    result.truncated`` beside it, and judges ``result.verdicts()`` for a
    variant."""
    for name, checker in BATCH_CHECKS:
        violations = checker(record)
        if violations:
            raise PropertyViolation(name.capitalize(), "; ".join(violations))
