"""Regenerate ``golden.json`` and the schedule fingerprint.

Usage::

    PYTHONPATH=src:tests python tests/runtime/generate_golden.py

``golden.json`` holds every fingerprint that witnesses the schedule: the
engine, kernel and async scenarios of ``_scenarios.py`` that
``test_differential.py`` replays, the async ones again under the retired
one-timer-per-wake discipline (``oracle_async``, replayed there too), the
``run_scenario`` row pins (``rows``, read by
``tests/workloads/test_pipeline_rows.py``), the same rows under the
retired §4.3 patterns (``oracle_rows``, read by
``tests/substrates/test_slot_cost.py``) and the helper's push and scan
counts on the latency ledger's cell (``latency_ledger``, read by
``tests/core/test_latency_ledger.py``).  The script then writes
``content_hash`` of that file into ``SCHEDULE_FINGERPRINT`` in
``src/repro/campaign/cache.py``: a cache entry stored under another
fingerprint misses, and the nightly soak keys its restored cache on it.

The committed files are exactly what this script writes on the committed
tree; CI's ``runtime-differential`` job re-runs it and fails on any
diff.  The 80 ``kernel:pingpong*`` fingerprints are still the ones
produced before the ``repro.runtime`` extraction (91a52c1): they pin the
runtime loop.  The 20 ``kernel:replog3:*`` ones moved with the §4.3
consensus; ``tests/substrates/replog3_pr2*.json`` keep the retired
values for the oracles to reproduce.

Regenerate only for a deliberate, documented behaviour change, in the PR
that makes it (DESIGN.md §13 policy (2)) — never to paper over a
differential failure.
"""

from __future__ import annotations

import json
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro._content import content_hash  # noqa: E402
from _scenarios import (  # noqa: E402
    GOLDEN_PATH,
    async_fingerprint,
    async_scenarios,
    canonical_hash,
    engine_scenarios,
    kernel_fingerprint,
    kernel_scenarios,
    oracle_async,
    record_fingerprint,
    row_pins,
    trace_fingerprint,
)
from tests.core.test_latency_ledger import measure, push_pins  # noqa: E402

CACHE_PY = os.path.join(ROOT, "src", "repro", "campaign", "cache.py")
FINGERPRINT_LINE = re.compile(r'^SCHEDULE_FINGERPRINT = "[0-9a-f]{64}"$', re.M)


def write_fingerprint(fingerprint: str) -> None:
    """Rewrite the one ``SCHEDULE_FINGERPRINT`` line of ``cache.py``."""
    with open(CACHE_PY, encoding="utf-8") as fh:
        source = fh.read()
    source, count = FINGERPRINT_LINE.subn(
        f'SCHEDULE_FINGERPRINT = "{fingerprint}"', source
    )
    if count != 1:
        raise SystemExit(f"{CACHE_PY}: {count} SCHEDULE_FINGERPRINT lines, want 1")
    with open(CACHE_PY, "w", encoding="utf-8") as fh:
        fh.write(source)


def main() -> None:
    golden = {"async": {}, "engine": {}, "kernel": {}}
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
    for key, run in async_scenarios():
        golden["async"][key] = async_fingerprint(run())
    golden["oracle_async"] = {key: run() for key, run in oracle_async()}
    golden.update(row_pins())
    golden["latency_ledger"] = push_pins(measure())
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        fingerprint = content_hash(json.load(fh))
    write_fingerprint(fingerprint)
    print(
        f"wrote {GOLDEN_PATH}: {len(golden['engine'])} engine + "
        f"{len(golden['kernel'])} kernel + {len(golden['async'])} async "
        f"(+ {len(golden['oracle_async'])} oracle) scenarios, "
        f"{len(golden['rows'])} rows + {len(golden['oracle_rows'])} oracle "
        "rows, the latency ledger's pushes; "
        f"SCHEDULE_FINGERPRINT = {fingerprint}"
    )


if __name__ == "__main__":
    main()
