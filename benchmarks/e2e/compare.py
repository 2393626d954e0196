"""Compare two reports of run.py: one row per workload x end-to-end metric.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the reference (the parent commit, or the first of two sets of runs of
one commit) and B the candidate.  Each row shows both medians with their
quartiles, the regression bound BENCHMARK.json fixes, and a verdict:

* ``worse`` / ``better`` — B's median is off A's by more than the bound;
* ``same`` — within the bound;
* ``unresolved`` — the run-to-run spread exceeds the bound and the two
  sides' quartile ranges overlap, so the runs cannot tell.

``sim_digest`` and ``cells_digest`` are compared for identity and reported,
not judged: a host-speed change must leave both equal.  Exit status 1 on
any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

BETTER, SAME, WORSE, UNRESOLVED = "better", "same", "worse", "unresolved"


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    """Judge candidate ``b`` against reference ``a`` for one metric.

    ``a`` and ``b`` carry ``median``, ``q1`` and ``q3``; ``better`` is
    ``"higher"`` or ``"lower"``; ``bound`` is a share of ``a``'s median.
    """
    base = abs(a["median"])
    if base == 0:
        return SAME if b["median"] == a["median"] else UNRESOLVED
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / base
    if worse_by == 0:
        return SAME
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    if spread > bound and overlap:
        return UNRESOLVED
    if worse_by > bound:
        return WORSE
    if -worse_by > bound:
        return BETTER
    return SAME


def compare(
    a: Dict[str, Any], b: Dict[str, Any], metrics: Sequence[Dict[str, Any]]
) -> Tuple[List[Tuple[str, ...]], List[str]]:
    """Table rows and notes for two reports against the contract's metrics."""
    rows: List[Tuple[str, ...]] = []
    notes: List[str] = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            notes.append(f"{name}: only in A")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for key in ("cells_digest", "sim_digest"):
            state = "identical" if wa[key] == wb[key] else "DIFFERENT"
            notes.append(f"{name}: {key} {state}")
        for metric in metrics:
            ea = wa["end_to_end"].get(metric["name"])
            eb = wb["end_to_end"].get(metric["name"])
            if ea is None or eb is None:
                continue
            rows.append((
                name,
                metric["name"],
                f"{ea['median']:.6g} [{ea['q1']:.6g}, {ea['q3']:.6g}]",
                f"{eb['median']:.6g} [{eb['q1']:.6g}, {eb['q3']:.6g}]",
                f"{metric['better']} {metric['bound'] * 100:g}%",
                verdict(ea, eb, metric["better"], metric["bound"]),
            ))
    return rows, notes


def render(rows: Sequence[Tuple[str, ...]]) -> str:
    headers = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "verdict")
    table = [headers, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="reference report (run.py --out)")
    parser.add_argument("b", help="candidate report")
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print(f"note: A is seed {a['seed']} scale {a['scale']}, "
              f"B is seed {b['seed']} scale {b['scale']}: exact metrics will differ")
    rows, notes = compare(a, b, metrics)
    print(render(rows))
    for note in notes:
        print(note)
    worse = sum(1 for row in rows if row[-1] == WORSE)
    print(f"{len(rows)} rows, {worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
