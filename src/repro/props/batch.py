"""Batch property verdicts: the §2.2 checkers as one sweep-ready call.

Campaign rows must carry a machine-readable verdict per property — not
an exception — so a single misbehaving scenario reads as data instead of
killing a thousand-scenario sweep.  :func:`batch_verdicts` runs
:data:`repro.props.checkers.BATCH_CHECKS` — the list
:func:`~repro.props.checkers.assert_run_ok` raises from — and returns a
``{property: violation count}`` map;
:func:`variant_checks` names the extra checkers a protocol variant is
additionally accountable to (e.g. ``"strict"`` adds real-time order).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.model.runs import RunRecord
from repro.props.checkers import BATCH_CHECKS, Checker, check_strict_ordering

#: Extra checkers owed by specific protocol variants.
VARIANT_CHECKS: Dict[str, Tuple[Tuple[str, Checker], ...]] = {
    "strict": (("strict_ordering", check_strict_ordering),),
}


def variant_checks(variant: str) -> Tuple[Tuple[str, Checker], ...]:
    """The additional checkers owed by ``variant`` (possibly none)."""
    return VARIANT_CHECKS.get(variant, ())


def batch_verdicts(
    record: RunRecord,
    extra: Sequence[Tuple[str, Checker]] = (),
) -> Dict[str, int]:
    """Violation counts per property, in registry order.

    Zero everywhere means the run satisfies genuine atomic multicast
    (§2.2 plus Minimality); non-zero counts localize the failure without
    raising, which is what a sweep aggregator needs.
    """
    verdicts: Dict[str, int] = {}
    for name, checker in (*BATCH_CHECKS, *extra):
        verdicts[name] = len(checker(record))
    return verdicts


def verdicts_ok(verdicts: Dict[str, int]) -> bool:
    """Whether a verdict map reports no violation at all."""
    return all(count == 0 for count in verdicts.values())
