"""Regenerate ``golden.json`` — the differential suite's fingerprints.

Usage::

    PYTHONPATH=src:tests python tests/runtime/generate_golden.py

The committed ``golden.json`` is exactly what this script writes on the
committed tree; CI's ``runtime-differential`` job re-runs it and fails on
any diff.  The 168 engine and 80 ``kernel:pingpong*`` fingerprints are
still the ones produced at the last commit *before* the
``repro.runtime`` extraction (91a52c1) — they pin the runtime loop, and
every commit since reproduces them byte for byte.  The 20
``kernel:replog3:*`` fingerprints were re-versioned three times under
DESIGN.md §13 policy (2): in PR 20 (the §4.3 consensus deliberately
sends fewer datagrams), in PR 21 (a log slot decides a batch) and in
PR 23 (a learner does not relay DECIDE); CHANGES.md lists the keys and
the reason each time, and ``tests/substrates/replog3_pr2*.json`` keep
the retired values for the oracles to reproduce.

Regenerate only for such a deliberate, documented behaviour change, in
the PR that makes it — never to paper over a differential failure.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

from _scenarios import (  # noqa: E402
    canonical_hash,
    engine_scenarios,
    kernel_fingerprint,
    kernel_scenarios,
    record_fingerprint,
    trace_fingerprint,
)

OUT = os.path.join(os.path.dirname(__file__), "golden.json")


def main() -> None:
    golden = {"engine": {}, "kernel": {}}
    for key, run in engine_scenarios():
        system = run(scan=True)
        golden["engine"][key] = {
            "record": canonical_hash(record_fingerprint(system.record)),
            "trace": canonical_hash(trace_fingerprint(system.tracer)),
            "rounds": len(system.tracer.rounds),
        }
    for key, run in kernel_scenarios():
        kernel = run(scan=True)
        golden["kernel"][key] = {
            "outputs": canonical_hash(kernel_fingerprint(kernel)),
            "steps": sum(kernel.steps_taken.values()),
        }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {OUT}: {len(golden['engine'])} engine + "
        f"{len(golden['kernel'])} kernel scenarios"
    )


if __name__ == "__main__":
    main()
