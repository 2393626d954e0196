"""The log's orders by definition: sort everything, probe every pair.

``repro.objects.space.LogHandle`` keeps its message items in an
incrementally maintained sorted key list and answers the order waits of Algorithm 1
from ranks and a settled-prefix length; these are the per-read re-sort
and the pairwise ``precedes`` walk it replaced, kept verbatim (as
functions of the log) as the reference the differential tests in
``test_log_order_differential.py`` and
``tests/core/test_order_frontier.py`` compare against.

The log also files each message's records at insertion; the
filter-and-sort accessors it replaced are the reference of
``test_records_index_differential.py``.

All of them read only the log's slot table (``pos`` / ``in``, in
insertion order), never the structures under test, and tell records
from messages by the log's own item-kind rule,
:func:`repro.objects.space.is_record`.  O(n log n) per
read — test logs only.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.objects.space import LogHandle, is_record


def precedes(log: LogHandle, d: Any, d_prime: Any) -> bool:
    """``d <_L d'``: both present, lower slot or slot tie-break."""
    pos_d = log.positions.get(d)
    pos_dp = log.positions.get(d_prime)
    if pos_d is None or pos_dp is None:
        return False
    if pos_d != pos_dp:
        return pos_d < pos_dp
    return d < d_prime


def messages(log: LogHandle) -> Tuple[Any, ...]:
    """The *message* items of the log, in ``<_L`` order.

    Messages are the items that are not records.
    """
    present = [d for d in log.positions if not is_record(d)]
    present.sort(key=lambda d: (log.positions[d], d))
    return tuple(present)


def messages_before(log: LogHandle, datum: Any) -> Tuple[Any, ...]:
    """Messages ``m'`` with ``m' <_L datum``."""
    if not is_record(datum) and datum in log.positions:
        # ``messages()`` is sorted by exactly the ``<_L`` key, so the
        # predecessors of a present message form a prefix.
        out: List[Any] = []
        for m in messages(log):
            if precedes(log, m, datum):
                out.append(m)
            else:
                break
        return tuple(out)
    return tuple(m for m in messages(log) if precedes(log, m, datum))


def _records_for(log: LogHandle, message: Any, arity: int) -> Tuple[Tuple[Any, ...], ...]:
    """The ``arity``-long records headed by ``message``, sorted by slot
    (stable: ties stay in insertion order)."""
    rows = [
        r
        for r in log.positions
        if is_record(r) and len(r) == arity and r[0] == message
    ]
    rows.sort(key=lambda r: log.positions[r])
    return tuple(rows)


def position_records_for(log: LogHandle, message: Any) -> Tuple[Tuple[Any, ...], ...]:
    """Records ``(m, h, i)`` of ``message``."""
    return _records_for(log, message, 3)


def stabilization_records_for(log: LogHandle, message: Any) -> Tuple[Tuple[Any, ...], ...]:
    """Records ``(m, h)`` of ``message``."""
    return _records_for(log, message, 2)
