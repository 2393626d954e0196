"""Campaign grids and executors: expansion, equivalence, isolation."""

import json
import os

import pytest

from repro.campaign import Campaign, CampaignCase, case, run_campaign
from repro.campaign.aggregate import CAMPAIGN_SCHEMA_VERSION
from repro.metrics import read_jsonl
from repro.model import crash_pattern, make_processes, pset
from repro.workloads import ScenarioSpec, Send, TopologySpec, chain_topology, ring_topology


def small_campaign(seeds=(0, 1), variants=("vanilla",)) -> Campaign:
    procs = make_processes(3)
    return Campaign(
        name="unit",
        cases=(
            case("chain", chain_topology(2), sends=(Send(1, "g1", 0), Send(3, "g2", 1))),
            case(
                "chain-crash",
                chain_topology(2),
                pattern=crash_pattern(pset(procs), {procs[0]: 1}),
                sends=(Send(1, "g1", 5),),
            ),
        ),
        seeds=tuple(seeds),
        variants=tuple(variants),
        max_rounds=200,
    )


class TestGrid:
    def test_expansion_is_the_full_product(self):
        campaign = small_campaign(seeds=(0, 1, 2), variants=("vanilla", "strict"))
        specs = campaign.specs()
        assert len(specs) == 2 * 3 * 2
        assert len({(s.spec_hash(), s.name) for s in specs}) == len(specs)

    def test_expansion_order_is_deterministic(self):
        a = small_campaign().specs()
        b = small_campaign().specs()
        assert a == b
        assert [s.name for s in a[:2]] == ["chain:s0:vanilla", "chain:s1:vanilla"]

    def test_campaign_hash_tracks_content(self):
        assert small_campaign().campaign_hash() == small_campaign().campaign_hash()
        assert (
            small_campaign(seeds=(0,)).campaign_hash()
            != small_campaign(seeds=(1,)).campaign_hash()
        )

    def test_case_rejects_pattern_and_crashes_together(self):
        procs = make_processes(3)
        with pytest.raises(ValueError):
            case(
                "bad",
                chain_topology(2),
                pattern=crash_pattern(pset(procs), {procs[0]: 1}),
                crashes=((1, 1),),
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            Campaign(name="empty", cases=())
        with pytest.raises(ValueError):
            Campaign(
                name="no-seeds",
                cases=(case("c", chain_topology(2)),),
                seeds=(),
            )


def artifact_bytes(out_dir):
    """The two files a sweep's ``out_dir`` holds, as bytes."""
    files = {}
    for artifact in ("manifest.json", "results.jsonl"):
        with open(os.path.join(out_dir, artifact), "rb") as fh:
            files[artifact] = fh.read()
    return files


class TestExecutor:
    def test_serial_and_parallel_are_byte_identical(self, tmp_path):
        campaign = small_campaign()
        a, b = str(tmp_path / "serial"), str(tmp_path / "pool")
        serial = run_campaign(campaign, workers=1, out_dir=a)
        parallel = run_campaign(campaign, workers=2, mode="process", out_dir=b)
        assert serial.mode == "serial" and parallel.mode == "process"
        assert artifact_bytes(a) == artifact_bytes(b)
        assert serial.summary == parallel.summary

    def test_aggregate_is_worker_count_independent(self, tmp_path):
        campaign = small_campaign(seeds=(0, 1, 2))
        a, b = str(tmp_path / "two"), str(tmp_path / "three")
        two = run_campaign(campaign, workers=2, out_dir=a)
        three = run_campaign(campaign, workers=3, out_dir=b)
        assert artifact_bytes(a) == artifact_bytes(b)
        assert two.summary == three.summary

    def test_rows_arrive_in_spec_order(self):
        campaign = small_campaign()
        report = run_campaign(campaign, workers=2)
        assert [row["index"] for row in report.rows] == list(range(len(report.specs)))
        assert [row["name"] for row in report.rows] == [s.name for s in report.specs]

    def test_failing_scenario_is_isolated(self):
        # Send from an index outside the topology: run_scenario raises.
        broken = ScenarioSpec(
            topology=TopologySpec.capture(chain_topology(2)),
            sends=(Send(9, "g1", 0),),
            max_rounds=50,
            name="broken",
        )
        good = ScenarioSpec(
            topology=TopologySpec.capture(chain_topology(2)),
            sends=(Send(1, "g1", 0),),
            max_rounds=200,
            name="good",
        )
        report = run_campaign([broken, good], workers=1)
        assert len(report.rows) == 2
        failed, ok = report.rows
        assert failed["status"] == "failed"
        assert "ValueError" in failed["error"]
        assert "run_scenario" in failed["traceback"]
        assert ok["status"] == "ok" and ok["delivered_everywhere"]
        assert report.summary["failed"] == 1 and report.summary["ok"] == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(small_campaign(), mode="threads")


class TestArtifacts:
    def test_write_produces_manifest_and_results(self, tmp_path):
        campaign = small_campaign()
        out = str(tmp_path / "out")
        report = run_campaign(campaign, workers=1, out_dir=out)
        assert report.rows == ()  # the artifact holds them
        records = read_jsonl(os.path.join(out, "results.jsonl"))
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == CAMPAIGN_SCHEMA_VERSION
        assert records[0]["campaign_hash"] == campaign.campaign_hash()
        body = [r for r in records if r["type"] == "row"]
        assert len(body) == len(campaign.specs())
        assert records[-1]["type"] == "summary"
        assert records[-1]["scenarios"] == len(body)
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert [s["spec_hash"] for s in manifest["scenarios"]] == [
            s.spec_hash() for s in campaign.specs()
        ]

    def test_rows_replay_from_the_results_file(self, tmp_path):
        run_campaign(small_campaign(), workers=1, out_dir=str(tmp_path))
        results = os.path.join(str(tmp_path), "results.jsonl")
        row = [r for r in read_jsonl(results) if r["type"] == "row"][0]
        spec = ScenarioSpec.from_json(row["spec"])
        assert spec.spec_hash() == row["spec_hash"]
        from repro.workloads import run_scenario

        replay = run_scenario(spec)
        assert replay.rounds == row["rounds"]
        assert replay.to_row()["verdicts"] == row["verdicts"]
