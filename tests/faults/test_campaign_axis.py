"""Tests for the campaign `faults` axis and failed-row triage."""

from repro.campaign.aggregate import sweep_hash
from repro.campaign.executor import execute_spec, run_campaign
from repro.campaign.grid import Campaign, case
from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

PLAN = random_plan(0, "links", process_count=6)


def small_campaign(**kwargs):
    return Campaign(
        name="axis",
        cases=(
            case(
                "disjoint",
                disjoint_topology(2, group_size=3),
                sends=(Send(1, "g1", 0), Send(4, "g2", 0)),
            ),
        ),
        seeds=(0, 1),
        **kwargs,
    )


def hashed(campaign):
    return sweep_hash(campaign.name, campaign.specs())


class TestFaultsAxis:
    def test_default_axis_changes_nothing(self):
        with_default = small_campaign()
        explicit = small_campaign(faults=(None,))
        assert with_default.specs() == explicit.specs()
        assert hashed(with_default) == hashed(explicit)
        assert all(s.faults is None for s in with_default.specs())

    def test_axis_expands_innermost(self):
        campaign = small_campaign(faults=(None, PLAN))
        specs = campaign.specs()
        assert len(specs) == 4  # 2 seeds x 2 plans
        assert [s.faults for s in specs] == [None, PLAN, None, PLAN]

    def test_labels_name_the_plan(self):
        campaign = small_campaign(faults=(None, PLAN))
        names = [s.name for s in campaign.specs()]
        assert names[0].endswith(":f-none")
        assert names[1].endswith(f":f{PLAN.plan_hash()[:6]}")

    def test_non_default_axis_is_in_the_manifest(self):
        campaign = small_campaign(faults=(PLAN,))
        assert [s.to_json()["faults"] for s in campaign.specs()] == [
            PLAN.to_json()
        ] * 2
        assert hashed(campaign) != hashed(small_campaign())

    def test_faulted_campaign_runs_green(self):
        report = run_campaign(small_campaign(faults=(None, PLAN)))
        assert report.summary["failed"] == 0
        assert report.summary["violating_scenarios"] == 0
        faulted_rows = [r for r in report.rows if "faults" in r]
        assert len(faulted_rows) == 2
        for row in faulted_rows:
            assert row["faults"]["plan_hash"] == PLAN.plan_hash()


class TestFailedRowTriage:
    def test_failed_rows_carry_replay_coordinates(self):
        # The kernel backend rejects overlapping groups: a guaranteed,
        # content-independent scenario failure.
        bad = ScenarioSpec(
            topology=TopologySpec.capture(paper_figure1_topology()),
            sends=(Send(1, "g1", 0),),
            backend="kernel",
            faults=PLAN,
            seed=3,
        )
        row = execute_spec((0, bad))
        assert row["status"] == "failed"
        assert row["triage"] == {
            "spec_hash": bad.spec_hash(),
            "seed": 3,
            "backend": "kernel",
            "fault_plan_hash": PLAN.plan_hash(),
        }
        assert row["spec"] == bad.to_json()
