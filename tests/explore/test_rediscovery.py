"""Rediscovering the superseded-proposer liveness bug from scratch.

The ``supersede-wait`` quirk retains the pre-fix PROMISE handling of
the replicated-log kernel's consensus automaton: a proposer whose
ballot has been superseded *waits* instead of abandoning the ballot, so
a stable leader stuck behind a higher promise spins forever — the run
never quiesces and Termination is never witnessed.  The fix (abandon on
supersession) shipped long ago; the quirk replays the bug on demand.

This test is the explorer's acceptance gate: starting from the
fault-free quirked base scenario, with **zero hand-written fault
plans**, a fixed-seed random campaign must rediscover the stall within
a documented budget (48 iterations — the bug first surfaces at
iteration 3 with this seed, so the budget is generous), auto-shrink the
witness to at most 3 events whose trigger is the ``omega_late``
rotation, and produce a repro whose replay reproduces the violation
deterministically.  The same search on the fixed (quirk-free) base
finds nothing — the explorer flags the bug, not the backend.
"""

import pytest

from repro.explore.driver import Explorer
from repro.faults.shrink import replay_repro
from repro.props.batch import verdicts_ok
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

#: The documented rediscovery budget (EXPERIMENTS.md "Exploring the
#: fault space"): 48 iterations, seed 7.
BUDGET_ITERATIONS = 48
CAMPAIGN_SEED = 7

#: The triage key of the first stall found (iteration 3): a single
#: ``omega_late`` rotation.
FIRST_WITNESS = (
    "scenario|termination,truncated|"
    "b916c64b2105080ae593ccec639b7edf755cad5a311f9f29f740079517b02ec8"
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
        [kernel_base(quirks=("supersede-wait",))], seed=CAMPAIGN_SEED
    )
    return explorer, explorer.run(iterations=BUDGET_ITERATIONS)


@pytest.fixture(scope="module")
def campaign():
    """One rediscovery campaign, shared by the tests that only read it."""
    return rediscovery_campaign()


class TestRediscovery:
    def test_the_stall_is_found_within_the_budget(self, campaign):
        _, report = campaign
        stalls = [
            record
            for record in report.triage
            if "truncated" in record["properties"]
        ]
        assert stalls, "the quirked kernel never stalled within budget"
        # The first witness appears early; the budget is generous.
        assert stalls[0]["first_iteration"] < BUDGET_ITERATIONS
        assert FIRST_WITNESS in report.triage_keys

    def test_the_witness_shrinks_to_the_omega_trigger(self, campaign):
        _, report = campaign
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

    def test_the_repro_replays_deterministically(self, campaign):
        _, report = campaign
        record = max(report.triage, key=lambda r: r["count"])
        payload = record["payload"]  # no out_dir: payload rides along
        replay = replay_repro(payload)
        assert replay["verdicts"] == payload["verdicts"]
        assert replay["truncated"] == payload["truncated"]
        assert not verdicts_ok(replay["verdicts"]) or replay["truncated"]

    def test_the_fixed_backend_is_clean_under_the_same_budget(self):
        """Nothing at all: any finding would fail the soak.

        Crashing a sender once stranded its slot on the quirk-free
        backend too; the next ``Omega_g`` leader now takes the slot over.
        """
        explorer = Explorer([kernel_base(quirks=())], seed=CAMPAIGN_SEED)
        report = explorer.run(iterations=BUDGET_ITERATIONS)
        assert report.triage == []

    def test_the_campaign_is_deterministic(self, campaign):
        _, a = campaign
        _, b = rediscovery_campaign()
        assert a.triage_keys == b.triage_keys
        a_json, b_json = a.to_json(), b.to_json()
        a_json.pop("elapsed"), b_json.pop("elapsed")
        assert a_json == b_json
