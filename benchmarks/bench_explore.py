"""Coverage-guided exploration vs pure random sampling.

The explorer's reason to exist is that feedback beats the lottery: a
corpus + energy schedule + mutation engine should reach execution
behaviours that independent ``random_plan`` draws do not, given the
same budget.  This benchmark runs both strategies — identical bases,
seeds and budgets, fully deterministic — and asserts the dominance
claim on **final coverage**: averaged over seeds, the guided search
ends each campaign knowing strictly more distinct fingerprints than
the random ablation.

The per-iteration shape is the classic fuzzing curve and is recorded,
not asserted: random sampling sprints early (every fresh draw is a new
named-mix plan), the guided search overtakes as the corpus fills and
mutation starts exploiting rare entries — by the 96-iteration budget
it leads on both the healthy bases and the quirked rediscovery cell.

The measured curves are committed to ``BENCH_explore.json`` at the
repo root (the coverage-vs-iterations artifact EXPERIMENTS.md plots)
and the quirked half doubles as a soak-shaped check: every guided seed
must rediscover the supersede-wait stall inside the budget.
"""

from __future__ import annotations

import json
import os

from repro.explore.__main__ import base_cells
from repro.explore.driver import Explorer
from repro.metrics.summary import format_table

ITERATIONS = 96
SEEDS = (0, 1, 2, 3, 4)
#: Curve checkpoints committed to BENCH_explore.json (1-based).
CHECKPOINTS = (8, 16, 24, 32, 48, 64, 80, 96)

ROWS = []
BENCH: dict = {"iterations": ITERATIONS, "seeds": list(SEEDS)}


def _campaigns(bases, strategy):
    """One campaign per seed; returns (avg curve, final coverages, triage)."""
    curves, finals, triage_counts = [], [], []
    for seed in SEEDS:
        explorer = Explorer(bases, seed=seed, strategy=strategy)
        report = explorer.run(iterations=ITERATIONS)
        curves.append([point["coverage"] for point in report.curve])
        finals.append(report.coverage)
        triage_counts.append(len(report.triage))
    average = [
        round(sum(curve[i] for curve in curves) / len(curves), 1)
        for i in range(ITERATIONS)
    ]
    return average, finals, triage_counts


def _record(setting, strategy, average, finals):
    BENCH.setdefault(setting, {})[strategy] = {
        "final_coverage_by_seed": finals,
        "final_coverage_mean": round(sum(finals) / len(finals), 1),
        "curve": {str(i): average[i - 1] for i in CHECKPOINTS},
    }
    ROWS.append(
        (
            setting,
            strategy,
            round(sum(finals) / len(finals), 1),
            " ".join(str(average[i - 1]) for i in CHECKPOINTS),
        )
    )


def teardown_module(module):
    if ROWS:
        print("\n\nexplore - guided vs random, mean final coverage:")
        print(
            format_table(
                ("setting", "strategy", "final", "curve @ checkpoints"),
                ROWS,
            )
        )
    bench_path = os.path.join(
        os.path.dirname(__file__), "..", "BENCH_explore.json"
    )
    with open(bench_path, "w", encoding="utf-8") as fh:
        json.dump(BENCH, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_guided_dominates_random_on_healthy_bases():
    bases = base_cells(("engine", "kernel"))
    guided_avg, guided_finals, _ = _campaigns(bases, "guided")
    random_avg, random_finals, _ = _campaigns(bases, "random")
    _record("healthy", "guided", guided_avg, guided_finals)
    _record("healthy", "random", random_avg, random_finals)

    assert sum(guided_finals) > sum(random_finals), (
        f"guided must end with more coverage than random on average: "
        f"{guided_finals} vs {random_finals}"
    )
    # And nothing violates on the fixed code paths (see the fault
    # matrix): coverage here is schedule diversity, not bugs.
    assert guided_avg[-1] > guided_avg[0]


def test_guided_dominates_random_on_the_rediscovery_cell():
    bases = base_cells(("kernel",), quirks=("supersede-wait",))
    guided_avg, guided_finals, guided_triage = _campaigns(bases, "guided")
    random_avg, random_finals, _ = _campaigns(bases, "random")
    _record("quirked", "guided", guided_avg, guided_finals)
    _record("quirked", "random", random_avg, random_finals)

    assert sum(guided_finals) > sum(random_finals), (
        f"guided must end with more coverage than random on average: "
        f"{guided_finals} vs {random_finals}"
    )
    # Every guided seed rediscovers the supersede-wait stall in budget.
    assert all(count >= 1 for count in guided_triage), guided_triage
    BENCH["quirked_guided_distinct_violations"] = guided_triage
