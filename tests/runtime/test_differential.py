"""The runtime differential suite: the refactor's byte-identity proof.

``golden.json`` holds fingerprints of every scenario in
:mod:`tests.runtime._scenarios`, produced by the **pre-refactor** engine
and kernel (the loops duplicated in ``MulticastSystem.tick`` and
``Kernel.round`` before the ``repro.runtime.Scheduler`` extraction).
These tests re-run the same scenarios on the current tree and demand:

* **engine, scan oracle** — identical :class:`RunRecord` *and* identical
  per-round :class:`TraceRecorder` stream (the trace pins the shuffle
  order, the scan accounting and the quiescence point);
* **engine, as shipped** — identical :class:`RunRecord` and round count
  (the RNG-compatibility invariant: the wake-index skips happen *after*
  the full-set shuffle, so the schedule of the processes that do act is
  the scan schedule);
* **kernel, both** — identical output queues and message-buffer
  accounting (``sent_count`` / ``received_count`` — this is also the
  satellite guarantee that the crash-time-driven drop schedule changes
  no message count), with the scan oracle additionally pinned to the
  exact pre-refactor step total.

"Scan" is no run-time mode: it is the seed loops' full-scan round body,
kept in ``_oracle.py`` and bound over ``Scheduler.round`` by
``force_scan`` (the scenario builders take ``scan=True``).

A failure here means the shared scheduler changed an observable
schedule.  Fix the scheduler — never regenerate ``golden.json`` to make
a failure disappear.  (The 20 ``kernel:replog3:*`` entries are the one
exception on record: PR 20 and PR 23 changed the consensus protocol's
message pattern and PR 21 what a log slot decides, each on purpose, and
re-versioned them under DESIGN.md §13 policy (2);
the engine and ``pingpong`` entries are still the pre-refactor ones.)
"""

from __future__ import annotations

import json
import os

import pytest

from tests.runtime._scenarios import (
    canonical_hash,
    engine_scenarios,
    kernel_fingerprint,
    kernel_scenarios,
    record_fingerprint,
    trace_fingerprint,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden.json")
with open(GOLDEN_PATH, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)

ENGINE_RUNS = dict(engine_scenarios())
KERNEL_RUNS = dict(kernel_scenarios())


def test_matrix_meets_acceptance_floor():
    """>= 20 seeds x >= 3 topologies, crashes and participation included."""
    keys = set(GOLDEN["engine"])
    assert len({k.split(":")[3] for k in keys if k.count(":") == 3}) >= 20
    assert len({k.split(":")[1] for k in keys}) >= 4
    assert any(":crash:" in k for k in keys)
    assert any(":participation:" in k for k in keys)
    assert set(ENGINE_RUNS) == keys
    assert set(KERNEL_RUNS) == set(GOLDEN["kernel"])


@pytest.mark.parametrize("key", sorted(GOLDEN["engine"]))
def test_engine_matches_pre_refactor(key):
    golden = GOLDEN["engine"][key]

    scan = ENGINE_RUNS[key](scan=True)
    assert canonical_hash(record_fingerprint(scan.record)) == golden["record"]
    assert canonical_hash(trace_fingerprint(scan.tracer)) == golden["trace"]
    assert len(scan.tracer.rounds) == golden["rounds"]

    event = ENGINE_RUNS[key](scan=False)
    assert canonical_hash(record_fingerprint(event.record)) == golden["record"]
    assert len(event.tracer.rounds) == golden["rounds"]


@pytest.mark.parametrize("key", sorted(GOLDEN["kernel"]))
def test_kernel_matches_pre_refactor(key):
    golden = GOLDEN["kernel"][key]

    scan = KERNEL_RUNS[key](scan=True)
    assert canonical_hash(kernel_fingerprint(scan)) == golden["outputs"]
    assert sum(scan.steps_taken.values()) == golden["steps"]

    event = KERNEL_RUNS[key](scan=False)
    # Outputs AND buffer accounting identical: skipping idle automata
    # and dropping crashed inboxes by schedule change no observable.
    assert canonical_hash(kernel_fingerprint(event)) == golden["outputs"]
    assert sum(event.steps_taken.values()) <= golden["steps"]
