"""Batch verdicts: the checkers as sweep-ready violation counts."""

from repro.baselines import BroadcastMulticast
from repro.groups import paper_figure1_topology
from repro.model import failure_free, make_processes, pset
from repro.props import batch_verdicts, variant_checks, verdicts_ok
from repro.workloads import ScenarioSpec, Send, chain_topology, run_scenario


def test_clean_run_has_zero_counts_everywhere():
    topo = chain_topology(2)
    procs = make_processes(3)
    result = run_scenario(
        ScenarioSpec.capture(
            topo,
            failure_free(pset(procs)),
            [Send(1, "g1", 0), Send(3, "g2", 1)],
        )
    )
    verdicts = batch_verdicts(result.record)
    assert set(verdicts) == {"integrity", "termination", "ordering", "minimality"}
    assert verdicts_ok(verdicts)


def test_broadcast_baseline_counts_minimality_violations():
    procs = make_processes(5)
    baseline = BroadcastMulticast(
        paper_figure1_topology(), failure_free(pset(procs))
    )
    baseline.multicast(procs[0], "g1")
    baseline.run()
    verdicts = batch_verdicts(baseline.record)
    assert verdicts["minimality"] > 0
    assert not verdicts_ok(verdicts)
    # The §2.2 core still holds: the baseline orders and terminates.
    assert verdicts["integrity"] == 0
    assert verdicts["ordering"] == 0


def test_variant_checks_add_strict_ordering():
    extra = variant_checks("strict")
    assert [name for name, _ in extra] == ["strict_ordering"]
    assert variant_checks("vanilla") == ()
    topo = chain_topology(2)
    procs = make_processes(3)
    result = run_scenario(
        ScenarioSpec.capture(
            topo,
            failure_free(pset(procs)),
            [Send(1, "g1", 0)],
            variant="strict",
        )
    )
    verdicts = batch_verdicts(result.record, extra=extra)
    assert verdicts["strict_ordering"] == 0
