"""Regenerate ``golden.json`` — the pre-refactor fingerprints.

Usage::

    PYTHONPATH=src:tests python tests/runtime/generate_golden.py

The committed ``golden.json`` was produced by running this script at the
last commit *before* the ``repro.runtime`` extraction (91a52c1), so the
differential suite proves the shared scheduler reproduces the seed
engine's and kernel's observable behaviour exactly.  Re-running it on a
later tree only confirms self-consistency — never regenerate it to
paper over a differential failure.
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
