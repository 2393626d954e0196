"""Rediscovering the superseded-proposer liveness bug from scratch.

The ``supersede-wait`` quirk retains the pre-fix PROMISE handling of
the replicated-log kernel's consensus automaton: a proposer whose
ballot has been superseded *waits* instead of abandoning the ballot, so
a stable leader stuck behind a higher promise spins forever — the run
never quiesces and Termination is never witnessed.  The fix (abandon on
supersession) shipped long ago; the quirk replays the bug on demand.

This test is the explorer's acceptance gate: starting from the
fault-free quirked base scenario, with **zero hand-written fault
plans**, a fixed-seed guided campaign must rediscover the stall within
a documented budget (48 iterations — the bug first surfaces around
iteration 1 with this seed, so the budget is generous), auto-shrink the
witness to at most 3 events whose trigger is the ``omega_late``
rotation, and produce a repro whose replay reproduces the violation
deterministically.  The same search on the fixed (quirk-free) base
finds nothing, and the committed soak baseline is empty — the explorer
flags the bug, not the backend.
"""

import os

from repro.explore.driver import Explorer, load_baseline
from repro.faults.shrink import replay_repro
from repro.props.batch import verdicts_ok
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

#: The documented rediscovery budget (EXPERIMENTS.md "Exploring the
#: fault space"): 48 iterations, seed 7, guided strategy.
BUDGET_ITERATIONS = 48
CAMPAIGN_SEED = 7

#: The triage key of the first stall found, recorded at PR 22.
FIRST_WITNESS = (
    "scenario|termination,truncated|"
    "35a846fca75828114c44734d48ca5ca8485fe8a500f42bddc23adc42faa2ac3a"
)

TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))
SENDS = (Send(1, "g1", 0), Send(4, "g2", 0))


def kernel_base(quirks=()):
    return ScenarioSpec(
        topology=TOPO,
        sends=SENDS,
        backend="kernel",
        max_rounds=240,
        quirks=quirks,
        name="kernel-base",
    )


def rediscovery_campaign():
    explorer = Explorer(
        [kernel_base(quirks=("supersede-wait",))],
        seed=CAMPAIGN_SEED,
        strategy="guided",
    )
    return explorer, explorer.run(iterations=BUDGET_ITERATIONS)


class TestRediscovery:
    def test_the_stall_is_found_within_the_budget(self):
        _, report = rediscovery_campaign()
        stalls = [
            record
            for record in report.triage
            if "truncated" in record["properties"]
        ]
        assert stalls, "the quirked kernel never stalled within budget"
        # The first witness appears early; the budget is generous.
        assert stalls[0]["first_iteration"] < BUDGET_ITERATIONS
        # The same witness as before the log learned to take a slot over
        # (PR 23): a takeover ballot waits out a superseding promise too.
        assert FIRST_WITNESS in report.triage_keys

    def test_the_witness_shrinks_to_the_omega_trigger(self):
        _, report = rediscovery_campaign()
        shrunk = [r for r in report.triage if "minimal_plan" in r]
        assert shrunk
        best = min(shrunk, key=lambda r: r["minimal_events"])
        assert best["minimal_events"] <= 3
        kinds = {e["kind"] for e in best["minimal_plan"]["events"]}
        assert "omega_late" in kinds or "crash_burst" in kinds
        # With this seed the dominant triage record is the pure
        # omega_late rotation — the PR 4 bug's original trigger.
        dominant = max(report.triage, key=lambda r: r["count"])
        assert {e["kind"] for e in dominant["minimal_plan"]["events"]} == {
            "omega_late"
        }
        assert dominant["minimal_events"] == 1

    def test_the_repro_replays_deterministically(self):
        explorer, report = rediscovery_campaign()
        record = max(report.triage, key=lambda r: r["count"])
        payload = record["payload"]  # no out_dir: payload rides along
        replay = replay_repro(payload)
        assert replay["verdicts"] == payload["verdicts"]
        assert replay["truncated"] == payload["truncated"]
        assert not verdicts_ok(replay["verdicts"]) or replay["truncated"]

    def test_the_fixed_backend_is_clean_under_the_same_budget(self):
        """Nothing at all, against an empty soak baseline.

        Until PR 23 the same budget surfaced a baselined class on the
        quirk-free backend too — crashing a sender stranded its slot
        (``scenario|truncated|kind:crash_burst`` / ``kind:churn``) — and
        this test asked only that the baseline cover what it found.  The
        next ``Omega_g`` leader now takes the slot over, the baseline is
        empty, and so is the ledger.
        """
        explorer = Explorer(
            [kernel_base(quirks=())],
            seed=CAMPAIGN_SEED,
            strategy="guided",
        )
        report = explorer.run(iterations=BUDGET_ITERATIONS)
        baseline = load_baseline(
            os.path.join(os.path.dirname(__file__), "soak_baseline.json")
        )
        assert baseline == []
        assert report.triage == []

    def test_the_campaign_is_deterministic(self):
        _, a = rediscovery_campaign()
        _, b = rediscovery_campaign()
        assert a.triage_keys == b.triage_keys
        assert a.coverage == b.coverage
