"""Delivery latency and host calls of ``async-shortlog``, pool by pool.

Usage::

    python tests/runtime/latency_pools.py

A *pool* is the set of cells ``benchmarks/e2e/run.py --workload
async-shortlog --seed S`` runs: cell seeds ``S`` to ``S + 19`` at the
default scale, so neighbouring driver seeds share most cells.  Seeds 0,
20, …, 1180 give 60 disjoint pools.  For each the script runs the
benchmark's own sim pass (``run.spawn_pass``: a fresh interpreter under
``PYTHONHASHSEED=0``, this checkout's ``src/``) and prints one markdown
row: p50 and p99 of the delivery latency in rounds (the benchmark's
grouped percentile) and host calls a delivery, the same three numbers
``run.py`` reports at that seed, and the first 12 hex digits of the
pass's ``sim_digest``.  The last row holds the three means.

Run it on two checkouts to compare a change pool by pool: equal digests
say the change moved no schedule of that pool.  For a schedule change, a
single seed's p99 rests on the tail of 20 cells, so one pool can move
past a bound that the mean over disjoint pools does not.
"""

from __future__ import annotations

import os
import statistics
import sys

E2E = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "e2e")
sys.path.insert(0, os.path.abspath(E2E))

import run  # noqa: E402 — the benchmark's driver, found through E2E
import stats  # noqa: E402

WORKLOAD = "async-shortlog"

#: The first driver seed of each pool: 60 disjoint pools of 20 cells.
SEEDS = range(0, 1200, 20)


def pool(seed: int) -> tuple:
    """``(p50, p99, host calls a delivery, sim_digest prefix)`` of the
    pool at ``seed``."""
    sim = run.spawn_pass(WORKLOAD, seed, None, "sim")
    if sim["failed"]:
        raise SystemExit(f"seed {seed}: {sim['failed']} cells failed")
    return (
        stats.grouped_percentile(sim["latencies"], 50),
        stats.grouped_percentile(sim["latencies"], 99),
        sim["host_calls"] / sim["deliveries"],
        sim["sim_digest"][:12],
    )


def main() -> None:
    print("| seed | p50 | p99 | host calls | digest |")
    print("|---|---|---|---|---|")
    rows = []
    for seed in SEEDS:
        rows.append(pool(seed))
        p50, p99, calls, digest = rows[-1]
        print(f"| {seed} | {p50:.3f} | {p99:.3f} | {calls:.1f} | {digest} |", flush=True)
    p50, p99, calls = (statistics.mean(column) for column in list(zip(*rows))[:3])
    print(f"| mean | {p50:.3f} | {p99:.3f} | {calls:.1f} | |")


if __name__ == "__main__":
    main()
