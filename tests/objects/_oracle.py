"""The log's message order by definition: sort everything, probe every pair.

``repro.objects.log.Log`` keeps its message items in an incrementally
maintained sorted key list and answers the order waits of Algorithm 1
from ranks and a settled-prefix length; these are the per-read re-sort
and the pairwise ``precedes`` walk it replaced, kept verbatim (as
functions of the log) as the reference the differential tests in
``test_log_order_differential.py`` and
``tests/core/test_order_frontier.py`` compare against.  They read only
the log's slot table (``pos`` / ``in``), never the structures under
test.  O(n log n) per read — test logs only.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.objects.log import Log


def precedes(log: Log, d: Any, d_prime: Any) -> bool:
    """``d <_L d'``: both present, lower slot or slot tie-break."""
    pos_d = log._positions.get(d)
    pos_dp = log._positions.get(d_prime)
    if pos_d is None or pos_dp is None:
        return False
    if pos_d != pos_dp:
        return pos_d < pos_dp
    return d < d_prime


def messages(log: Log) -> Tuple[Any, ...]:
    """The *message* items of the log, in ``<_L`` order.

    Messages are recognized by not being tuples (Algorithm 1 stores
    records as tuples).
    """
    present = [d for d in log._positions if not isinstance(d, tuple)]
    present.sort(key=lambda d: (log._positions[d], d))
    return tuple(present)


def messages_before(log: Log, datum: Any) -> Tuple[Any, ...]:
    """Messages ``m'`` with ``m' <_L datum``."""
    if not isinstance(datum, tuple) and datum in log._positions:
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
