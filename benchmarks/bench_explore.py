"""The kill ledger: iterations until random search first finds a bug.

A search lane is worth what it finds.  This benchmark plants three
known defects and runs the explorer (fresh ``random_plan`` draws, every
named mix, shrink and triage) against each over seeds 0–19, recording
the iteration of the first violating run — or ``null`` when the budget
ran out first:

* ``supersede-wait`` — the replicated-log kernel's retained quirk
  (a superseded proposer waits), on the quirked kernel base, budget 96;
* ``faultiness`` — the retired ``faulty_edges_at``
  (``tests/groups/_oracle.py``), which counts a down-but-recovering
  member as faulty, on the engine, kernel and async bases, budget 200;
* ``process_scoped`` — ``gamma(g)`` and the consensus family scoped to
  ``F(p)`` instead of the group (``tests/runtime/_oracle.py``), same
  bases and budget.

The last two are test-only patches; the nemesis grid and
``tests/core/test_gamma_scope_regression.py`` are the lanes that kill
them.  The ledger is committed to ``BENCH_explore.json`` at the repo
root and regenerates byte for byte (runs are pure functions of their
specs).  The one assertion: every seed kills ``supersede-wait`` within
48 iterations, the rediscovery budget of
``tests/explore/test_rediscovery.py``.
"""

from __future__ import annotations

import json
import os

from repro.explore.__main__ import base_cells
from repro.explore.driver import Explorer
from repro.metrics.summary import format_table
from tests.groups import _oracle as groups_oracle
from tests.runtime import _oracle as runtime_oracle

SEEDS = tuple(range(20))
ALL_BACKENDS = ("engine", "kernel", "async")

BENCH: dict = {"seeds": list(SEEDS), "mutants": {}}


def first_kills(bases, budget):
    """Per seed, the 1-based iteration of the first triaged violation
    (``None`` when the budget runs out first)."""
    kills = []
    for seed in SEEDS:
        explorer = Explorer(bases, seed=seed)
        kill = None
        while explorer.iterations < budget:
            explorer.run(iterations=1)
            if explorer.triage:
                kill = explorer.iterations
                break
        kills.append(kill)
    return kills


def record(mutant, backends, budget, kills):
    BENCH["mutants"][mutant] = {
        "backends": list(backends),
        "budget": budget,
        "first_kill": kills,
        "killed": sum(kill is not None for kill in kills),
    }


def teardown_module(module):
    rows = [
        (
            mutant,
            entry["budget"],
            f"{entry['killed']}/{len(SEEDS)}",
            " ".join("-" if k is None else str(k) for k in entry["first_kill"]),
        )
        for mutant, entry in sorted(BENCH["mutants"].items())
    ]
    if rows:
        print("\n\nexplore - random search, iterations to first kill:")
        print(format_table(("mutant", "budget", "killed", "per seed"), rows))
    bench_path = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_explore.json"
    )
    with open(bench_path, "w", encoding="utf-8") as fh:
        json.dump(BENCH, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_every_seed_kills_supersede_wait_within_48():
    kills = first_kills(base_cells(("kernel",), quirks=("supersede-wait",)), 96)
    record("supersede-wait", ("kernel",), 96, kills)
    assert all(kill is not None and kill <= 48 for kill in kills), kills


def test_ledger_faultiness(monkeypatch):
    monkeypatch.setattr(
        "repro.groups.families.faulty_edges_at", groups_oracle.faulty_edges_at
    )
    record(
        "faultiness", ALL_BACKENDS, 200,
        first_kills(base_cells(ALL_BACKENDS), 200),
    )


def test_ledger_process_scoped(monkeypatch):
    runtime_oracle.process_scoped_everywhere(monkeypatch)
    record(
        "process_scoped", ALL_BACKENDS, 200,
        first_kills(base_cells(ALL_BACKENDS), 200),
    )
