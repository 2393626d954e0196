"""Table 1 — the weakest-failure-detector matrix, made executable.

Each row of the paper's Table 1 pairs a problem variation with its
(weakest) failure detector.  This harness regenerates the table as a
solvability matrix: for every row we run the matching protocol under the
matching detector and machine-check the row's properties; for the
sufficiency rows we additionally run a *weakened* detector and exhibit
the failure that makes the detector necessary.

Printed rows (compare with Table 1 of the paper):

====================  ========  =====================================
genuineness           order     detector / observed outcome
====================  ========  =====================================
non-genuine           global    Omega ∧ Sigma: orders, breaks Minimality
genuine               global    mu: all properties hold, any failures
genuine               strict    mu ∧ 1^{g∩h}: strict ordering holds
genuine               pairwise  (∧ Sigma_{g∩h}) ∧ (∧ Omega_g): F = ∅
strongly genuine      global    mu ∧ Omega_{g∩h}: isolation delivery
====================  ========  =====================================
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.baselines import BroadcastMulticast
from repro.campaign import Campaign, case, run_campaign
from repro.core import MulticastSystem
from repro.groups import paper_figure1_topology
from repro.metrics import format_table
from repro.model import by_indices, crash_pattern, failure_free, make_processes, pset
from repro.props import (
    check_group_parallelism,
    check_integrity,
    check_minimality,
    check_ordering,
    check_pairwise_ordering,
    check_strict_ordering,
    check_termination,
    verdicts_ok,
)
from repro.workloads import ScenarioSpec, Send, chain_topology, run_scenario

PROCS = make_processes(5)
ALL = pset(PROCS)
SENDS = [
    Send(1, "g1", 0),
    Send(3, "g2", 0),
    Send(4, "g3", 1),
    Send(5, "g4", 1),
    Send(2, "g1", 2),
]
CRASH = {PROCS[1]: 4}  # p2 = g1∩g2 dies mid-run

ROWS = []


def teardown_module(module):
    print("\n\nTable 1 (executable rendering):")
    print(
        format_table(
            ("genuineness", "order", "detector", "outcome"), ROWS
        )
    )


def test_row_non_genuine_global_order(benchmark):
    """Row 1: without genuineness, Omega ∧ Sigma (a global atomic
    broadcast) suffices — and the Minimality audit fails by design."""

    def scenario():
        b = BroadcastMulticast(paper_figure1_topology(), failure_free(ALL))
        # Traffic touches only g1 and g2: p4 and p5 have no business here.
        for send in SENDS:
            if send.group in ("g1", "g2"):
                b.multicast(PROCS[send.sender - 1], send.group)
        b.run()
        return b.record

    record = run_once(benchmark, scenario)
    assert check_ordering(record) == []
    assert check_termination(record) == []
    violations = check_minimality(record)
    assert violations, "the broadcast baseline must break Minimality"
    ROWS.append(("x", "global", "Omega ∧ Sigma", "orders; not genuine"))


def test_row_genuine_global_order_mu(benchmark):
    """Row 4 (the paper's main result): genuine atomic multicast from mu,
    tolerating arbitrary failures."""

    spec = ScenarioSpec.capture(
        paper_figure1_topology(), crash_pattern(ALL, CRASH), SENDS, seed=3
    )

    def scenario():
        return run_scenario(spec).record

    record = run_once(benchmark, scenario)
    assert check_integrity(record) == []
    assert check_ordering(record) == []
    assert check_termination(record) == []
    assert check_minimality(record) == []
    ROWS.append(("ok", "global", "mu", "all properties hold under crashes"))


def test_row_genuine_strict_order(benchmark):
    """Row 5: strict (real-time) order needs mu ∧ (∧ 1^{g∩h})."""

    spec = ScenarioSpec.capture(
        paper_figure1_topology(),
        crash_pattern(ALL, CRASH),
        SENDS,
        seed=4,
        variant="strict",
    )

    def scenario():
        return run_scenario(spec).record

    record = run_once(benchmark, scenario)
    assert check_strict_ordering(record) == []
    assert check_termination(record) == []
    ROWS.append(
        ("ok", "strict", "mu ∧ 1^{g∩h}", "real-time order holds")
    )


def test_row_pairwise_order_needs_no_gamma(benchmark):
    """Row 6: pairwise ordering is computably F = ∅ — on an acyclic
    topology (gamma trivially silent) the remaining conjuncts suffice."""

    spec = ScenarioSpec.capture(
        chain_topology(3),
        failure_free(pset(make_processes(4))),
        [Send(1, "g1", 0), Send(2, "g2", 0), Send(4, "g3", 1)],
        seed=5,
    )

    def scenario():
        return run_scenario(spec).record

    record = run_once(benchmark, scenario)
    assert check_pairwise_ordering(record) == []
    assert check_termination(record) == []
    ROWS.append(
        (
            "ok",
            "pairwise",
            "(∧ Sigma_{g∩h}) ∧ (∧ Omega_g)",
            "no gamma needed (F = ∅)",
        )
    )


def test_row_strongly_genuine_isolation(benchmark):
    """Row 7: with F = ∅ and intersection-hosted logs (Omega_{g∩h}),
    a group delivers in isolation (group parallelism)."""

    def scenario():
        topo = chain_topology(2)
        procs = make_processes(3)
        system = MulticastSystem(
            topo, failure_free(pset(procs)), isolation=True, seed=6
        )
        m = system.multicast(procs[0], "g1")
        participation = by_indices(1, 2)
        for _ in range(60):
            system.tick(participation=participation)
        return system.record, m, participation

    record, message, participation = run_once(benchmark, scenario)
    assert check_group_parallelism(record, message, participation) == []
    ROWS.append(
        (
            "strong",
            "global",
            "mu ∧ Omega_{g∩h}",
            "delivers in isolation (F = ∅)",
        )
    )


def test_necessity_witness_gamma(benchmark):
    """Weakened gamma (never completes) blocks termination: the waiters
    of line 18/32 never learn that the cyclic family died."""

    # p2 = g1∩g2 dies *before* the g1 traffic: the commit wait of
    # line 18 can only be released by gamma's completeness.
    spec = ScenarioSpec.capture(
        paper_figure1_topology(),
        crash_pattern(ALL, {PROCS[1]: 1}),
        [Send(1, "g1", 5)],
        seed=7,
        gamma_lag=10_000,  # effectively: completeness never fires
        max_rounds=120,
    )

    def scenario():
        return run_scenario(spec).record

    record = run_once(benchmark, scenario)
    assert check_termination(record) != [], (
        "without gamma's completeness the run must block"
    )
    ROWS.append(
        ("ok", "global", "mu minus gamma", "BLOCKS (necessity witness)")
    )


def test_necessity_witness_sigma(benchmark):
    """Without quorums (participants below the Sigma sample) nothing can
    be ordered: the quorum component is load-bearing."""

    def scenario():
        topo = chain_topology(2)
        procs = make_processes(3)
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=8)
        m = system.multicast(procs[0], "g1")
        for _ in range(40):
            system.tick(participation=by_indices(1))  # no quorum
        return system.record, m

    record, message = run_once(benchmark, scenario)
    assert record.delivered_by(message) == frozenset()
    ROWS.append(
        ("ok", "global", "mu minus Sigma", "BLOCKS (necessity witness)")
    )


def test_matrix_rows_as_campaign_sweep(benchmark):
    """The mu rows of the matrix, swept across seeds via the campaign API.

    What each row above checks once, the campaign re-checks as a grid:
    the Figure 1 crash scenario under four seeds and both ordering
    variants, every row verdict-checked in batch.  This is the sweep
    style the ``campaign-faulted`` workload of ``benchmarks/e2e``
    measures at scale.
    """
    campaign = Campaign(
        name="table1-mu-row",
        cases=(
            case(
                "figure1-crash",
                paper_figure1_topology(),
                crashes=tuple((p.index, t) for p, t in CRASH.items()),
                sends=tuple(SENDS),
            ),
        ),
        seeds=(3, 4, 5, 6),
        variants=("vanilla", "strict"),
    )

    report = run_once(benchmark, lambda: run_campaign(campaign, workers=1))
    summary = report.summary
    assert summary["scenarios"] == 8
    assert summary["ok"] == 8 and summary["failed"] == 0
    assert summary["delivered"] == 8 and summary["truncated"] == 0
    assert sum(summary["violations"].values()) == 0
    for row in report.ok_rows():
        assert verdicts_ok(row["verdicts"]), row["name"]
    ROWS.append(
        (
            "ok",
            "global+strict",
            "mu (campaign sweep)",
            "8 seeded scenarios, all properties hold",
        )
    )
