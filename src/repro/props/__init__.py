"""Executable correctness properties of atomic multicast (§2, §6, §7)."""

from repro.props.batch import (
    BATCH_CHECKS,
    batch_verdicts,
    variant_checks,
    verdicts_ok,
)
from repro.props.checkers import (
    assert_run_ok,
    check_group_parallelism,
    check_integrity,
    check_minimality,
    check_ordering,
    check_pairwise_ordering,
    check_strict_ordering,
    check_termination,
)
from repro.props.relations import (
    delivery_order_graph,
    find_cycle,
    realtime_edges,
)

__all__ = [
    "BATCH_CHECKS",
    "batch_verdicts",
    "variant_checks",
    "verdicts_ok",
    "assert_run_ok",
    "check_group_parallelism",
    "check_integrity",
    "check_minimality",
    "check_ordering",
    "check_pairwise_ordering",
    "check_strict_ordering",
    "check_termination",
    "delivery_order_graph",
    "find_cycle",
    "realtime_edges",
]
