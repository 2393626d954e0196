"""The kill ledger: which seeds of the CI nemesis grid kill a planted bug.

A search lane is worth what it finds.  This benchmark plants three
known defects and sweeps the CI fault matrix's grid
(``python -m repro.campaign --grid nemesis --seeds 30``: every base,
backend and ``random_plan`` mix at seeds 0–29) against each, recording
the seeds with a violating cell and the number of such cells — a cell
violates when :func:`repro.campaign.triage.violated_properties` labels
its row, the judgement a red sweep triages by:

* ``supersede-wait`` — a superseded proposer waits instead of abandoning
  its ballot (``tests/substrates/_oracle.py``), on the grid's kernel
  cells;
* ``faultiness`` — the retired ``faulty_edges_at``
  (``tests/groups/_oracle.py``), which counts a down-but-recovering
  member as faulty, on every cell;
* ``process_scoped`` — ``gamma(g)`` and the consensus family scoped to
  ``F(p)`` instead of the group (``tests/runtime/_oracle.py``), on
  every cell.

All three are test-only patches, which no spec records: the sweeps
run without a cache.  The ledger is committed to
``BENCH_explore.json`` at the repo root and regenerates byte for byte
(runs are pure functions of their specs).  The one assertion is the
gate EXPERIMENTS.md wrote before measuring: some seed in 0–4 kills
``supersede-wait``.
"""

from __future__ import annotations

import json
import os
from collections import Counter

from repro.campaign.__main__ import nemesis_campaign
from repro.campaign.executor import run_campaign
from repro.campaign.triage import violated_properties
from repro.metrics.summary import format_table
from tests.groups import _oracle as groups_oracle
from tests.runtime import _oracle as runtime_oracle
from tests.substrates import _oracle as substrates_oracle

SEEDS = 30

BENCH: dict = {"grid": "nemesis", "seeds": SEEDS, "mutants": {}}


def record(mutant, specs):
    """Sweep ``specs`` and file the seeds with a violating cell."""
    report = run_campaign(specs)
    killing = Counter(
        spec.seed
        for spec, row in zip(specs, report.rows)
        if violated_properties(row)
    )
    entry = BENCH["mutants"][mutant] = {
        "cells": len(specs),
        "killing_cells": sum(killing.values()),
        "killed_seeds": sorted(killing),
    }
    return entry


def teardown_module(module):
    rows = [
        (
            mutant,
            entry["cells"],
            entry["killing_cells"],
            " ".join(map(str, entry["killed_seeds"])) or "-",
        )
        for mutant, entry in sorted(BENCH["mutants"].items())
    ]
    if rows:
        print(f"\n\nthe nemesis grid at seeds 0-{SEEDS - 1}, cells that kill:")
        print(format_table(("mutant", "cells", "killing", "seeds"), rows))
    bench_path = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_explore.json"
    )
    with open(bench_path, "w", encoding="utf-8") as fh:
        json.dump(BENCH, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_a_seed_in_0_to_4_kills_supersede_wait(monkeypatch):
    substrates_oracle.supersede_wait_everywhere(monkeypatch)
    specs = [
        spec for spec in nemesis_campaign(SEEDS).specs() if spec.backend == "kernel"
    ]
    entry = record("supersede-wait", specs)
    assert set(entry["killed_seeds"]) & set(range(5)), entry


def test_ledger_faultiness(monkeypatch):
    monkeypatch.setattr(
        "repro.groups.families.faulty_edges_at", groups_oracle.faulty_edges_at
    )
    record("faultiness", nemesis_campaign(SEEDS).specs())


def test_ledger_process_scoped(monkeypatch):
    runtime_oracle.process_scoped_everywhere(monkeypatch)
    record("process_scoped", nemesis_campaign(SEEDS).specs())
