"""Campaign grids and executors: expansion, equivalence, isolation."""

import json
import os

import pytest

from repro.campaign.aggregate import CAMPAIGN_SCHEMA_VERSION, sweep_hash
from repro.campaign.__main__ import main, nemesis_campaign, seed_range
from repro.campaign.executor import run_campaign
from repro.campaign.grid import Campaign, CampaignCase, case
from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.metrics.trace import read_jsonl
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import (
    chain_topology,
    disjoint_topology,
    ring_topology,
)


def small_campaign(seeds=(0, 1), variants=("vanilla",)) -> Campaign:
    return Campaign(
        name="unit",
        cases=(
            case("chain", chain_topology(2), sends=(Send(1, "g1", 0), Send(3, "g2", 1))),
            case(
                "chain-crash",
                chain_topology(2),
                crashes=((1, 1),),
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
        def hashed(campaign):
            return sweep_hash(campaign.name, campaign.specs())

        assert hashed(small_campaign()) == hashed(small_campaign())
        assert hashed(small_campaign(seeds=(0,))) != hashed(small_campaign(seeds=(1,)))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            Campaign(name="empty", cases=())
        with pytest.raises(ValueError):
            Campaign(
                name="no-seeds",
                cases=(case("c", chain_topology(2)),),
                seeds=(),
            )


class TestMixEntries:
    """A mix name on the ``faults`` axis draws the cell's plan from the
    cell's seed and its case's topology."""

    def campaign(self, **overrides):
        base = dict(
            name="mixes",
            cases=(
                case("fig1", paper_figure1_topology(), sends=(Send(1, "g1", 0),)),
                case("disjoint", disjoint_topology(2, group_size=3)),
            ),
            seeds=(3, 4),
            faults=("recovery", None),
        )
        base.update(overrides)
        return Campaign(**base)

    def test_a_mix_expands_to_the_cells_own_plan(self):
        specs = self.campaign().specs()
        assert len(specs) == 2 * 2 * 2
        for spec in specs[::2]:
            groups = tuple(name for name, _ in spec.topology.groups)
            assert spec.faults == random_plan(
                spec.seed,
                "recovery",
                process_count=spec.topology.process_count,
                groups=groups,
            )
            assert spec.name.endswith(
                f":recovery:f{spec.faults.plan_hash()[:6]}"
            )
        assert all(spec.faults is None for spec in specs[1::2])

    def test_an_unknown_mix_fails_when_built(self):
        with pytest.raises(ValueError, match="unknown nemesis mix 'storm'"):
            self.campaign(faults=("links", "storm"))

    def test_the_kernel_skips_intersecting_groups(self):
        specs = self.campaign(backends=("engine", "kernel")).specs()
        kernel = {s.name.split(":")[0] for s in specs if s.backend == "kernel"}
        assert kernel == {"disjoint"}
        assert len(specs) == 8 + 4


class TestCommandLine:
    @pytest.mark.parametrize(
        "flag", [["--backends", "engine"], ["--delay-model", "uniform:0.1:0.9"]]
    )
    def test_the_nemesis_grid_refuses_smoke_only_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--grid", "nemesis", *flag])
        assert exit_info.value.code == 2
        assert "applies to the smoke grid only" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--workers", "0"], ["--workers", "-2"], ["--seeds", "0"],
         ["--delay-model", "fixed:abc"], ["--backends", "quantum"],
         ["--seeds", "5:5"], ["--seeds", "7:3"], ["--seeds=-2:4"],
         ["--seeds", "1:x"]],
    )
    def test_bad_input_fails_at_the_parser(self, argv, capsys):
        """Not a green sweep that ran nothing, nor a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[0].partition("=")[0] in capsys.readouterr().err

    def test_a_seed_range_is_the_grid_at_those_seeds(self):
        assert seed_range("3") == range(0, 3) and seed_range("2:5") == range(2, 5)
        assert nemesis_campaign(range(1, 2)).specs() == tuple(
            spec for spec in nemesis_campaign(2).specs() if spec.seed == 1
        )

    def test_a_rerun_over_the_cache_reports_what_it_replayed(self, tmp_path, capsys):
        argv = ["--seeds", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main([*argv, "--out", str(tmp_path / "cold")]) == 0
        assert "executed=8 cached=0," in capsys.readouterr().out
        assert main([*argv, "--out", str(tmp_path / "warm")]) == 0
        assert "executed=0 cached=8," in capsys.readouterr().out
        assert artifact_bytes(str(tmp_path / "cold")) == artifact_bytes(
            str(tmp_path / "warm")
        )

    def test_the_nemesis_grid_runs_clean(self, tmp_path, capsys):
        assert main(["--grid", "nemesis", "--seeds", "1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'nemesis'" in out and "54 scenarios, 54 ok" in out


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
        assert records[0]["campaign_hash"] == sweep_hash(campaign.name, campaign.specs())
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
        from repro.workloads.runner import run_scenario

        replay = run_scenario(spec)
        assert replay.rounds == row["rounds"]
        assert replay.to_row()["verdicts"] == row["verdicts"]
