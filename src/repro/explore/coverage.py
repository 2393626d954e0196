"""Coverage extraction: one campaign row -> a fingerprint set.

A *fingerprint* is a short string naming one observed behaviour of a
run: an outcome flag, a per-property verdict, a log2-bucketed trace
counter, a wait-reason bucket, or one interleaving transition signature
from the :class:`repro.runtime.Scheduler` stream.  The
extractor is a **pure function of the row** — byte-identical rows
produce identical fingerprint sets, which is what lets cached campaign
rows (cache schema 2 carries the full trace section) stand in for live
runs during warm exploration.

Counters are bucketed by ``int.bit_length()`` (log2) so coverage is
about *regimes*, not exact totals: a run with 1000 quorum stalls and
one with 1024 land in the same bucket, while 0, 1 and 100 are all
distinct.  Without bucketing every run would be "novel" and the corpus
would admit everything; with it, novelty means a genuinely different
shape of execution.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Mapping

#: Trace counters fingerprinted as log2 buckets, in row-layout order.
TRACE_COUNTERS = (
    "rounds",
    "skipped",
    "full_scan_rounds",
    "quorum_queries",
    "quorum_stalls",
    "gamma_queries",
    "indicator_queries",
)


def bucket(value: int) -> int:
    """The log2 bucket of a nonnegative counter (0 -> 0, 1 -> 1,
    2-3 -> 2, 4-7 -> 3, ...)."""
    return int(value).bit_length()


def coverage_of(row: Mapping[str, Any]) -> FrozenSet[str]:
    """The fingerprint set of one campaign result row.

    Works on both live rows (:meth:`ScenarioResult.to_row`) and cached
    rows; rows predating cache schema 2 simply yield fewer fingerprints
    (their trace section lacks the coverage signals) — the extractor
    never raises on missing keys.
    """
    fps = set()
    status = row.get("status", "ok")
    if status != "ok":
        # A harness crash is its own coverage point: the error type is
        # the signal (a new exception class is a new behaviour).
        error = str(row.get("error", ""))
        etype = error.split("(", 1)[0].strip() or "unknown"
        fps.add("outcome:failed")
        fps.add(f"error:{etype}")
        return frozenset(fps)

    backend = row.get("backend", "engine")
    fps.add(f"backend:{backend}")
    for flag in ("delivered_everywhere", "truncated", "quiescent"):
        fps.add(f"outcome:{flag}:{bool(row.get(flag))}")
    fps.add(f"deliveries:b{bucket(int(row.get('deliveries', 0)))}")
    fps.add(f"skipped_sends:b{bucket(int(row.get('skipped_sends', 0)))}")

    for prop, count in (row.get("verdicts") or {}).items():
        fps.add(f"verdict:{prop}:{'violated' if count else 'ok'}")

    trace = row.get("trace") or {}
    for counter in TRACE_COUNTERS:
        if counter in trace:
            fps.add(f"trace:{counter}:b{bucket(int(trace[counter]))}")
    for reason, count in (trace.get("wait_reasons") or {}).items():
        fps.add(f"wait:{reason}:b{bucket(int(count))}")
    interleaving = trace.get("interleaving") or {}
    fps.add(f"interleave:n:b{bucket(int(interleaving.get('transitions', 0)))}")
    for signature in interleaving.get("signatures", ()):
        fps.add(f"interleave:{signature}")

    faults = row.get("faults") or {}
    fps.add(f"plan:events:b{bucket(int(faults.get('events', 0)))}")
    for stat, count in (faults.get("stats") or {}).items():
        fps.add(f"inject:{stat}:b{bucket(int(count))}")
    return frozenset(fps)


def coverage_stats(fps: FrozenSet[str]) -> Dict[str, int]:
    """Per-prefix fingerprint counts (report/debug aid)."""
    prefixes: Dict[str, int] = {}
    for fp in fps:
        prefix = fp.split(":", 1)[0]
        prefixes[prefix] = prefixes.get(prefix, 0) + 1
    return dict(sorted(prefixes.items()))
