"""The campaign scale-out layer: cache, streaming, resume, shards."""

import json
import os

import pytest

from repro.campaign import (
    Campaign,
    CampaignCache,
    case,
    run_campaign,
    scan_partial_results,
    shard_cells,
    shard_of,
    write_manifest,
)
from repro.campaign.cache import CACHE_SCHEMA_VERSION, ensure_cache
from repro.faults.nemesis import random_plan
from repro.metrics.sweep import summarize_results_file
from repro.workloads import ScenarioSpec, Send, TopologySpec, scenario_cache_key
from repro.workloads.topologies import chain_topology, disjoint_topology

TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))
SENDS = (Send(1, "g1", 0), Send(4, "g2", 0))
PLAN = random_plan(0, "links", process_count=6)


def small_campaign(name="unit", seeds=(0, 1), **kwargs):
    return Campaign(
        name=name,
        cases=(
            case("chain", chain_topology(2), sends=(Send(1, "g1", 0), Send(3, "g2", 1))),
            case("chain-late", chain_topology(2), sends=(Send(1, "g1", 3),)),
        ),
        seeds=tuple(seeds),
        variants=("vanilla",),
        max_rounds=200,
        **kwargs,
    )


def matrix_campaign(seeds=20):
    """The acceptance grid: ``seeds`` x 2 backends x fault axis."""
    return Campaign(
        name="matrix",
        cases=(case("disjoint", disjoint_topology(2, group_size=3), sends=SENDS),),
        seeds=tuple(range(seeds)),
        variants=("vanilla",),
        backends=("engine", "kernel"),
        faults=(None, PLAN),
        max_rounds=400,
    )


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCacheKey:
    def test_key_ignores_the_label(self):
        a = ScenarioSpec(topology=TOPO, sends=SENDS, seed=3, name="one")
        b = ScenarioSpec(topology=TOPO, sends=SENDS, seed=3, name="two")
        assert scenario_cache_key(a) == scenario_cache_key(b)

    def test_key_tracks_every_triage_coordinate(self):
        base = dict(topology=TOPO, sends=SENDS, seed=3)
        ref = scenario_cache_key(ScenarioSpec(**base))
        for tweak in (
            dict(seed=4),
            dict(backend="kernel"),
            dict(faults=PLAN),
            dict(sends=(Send(1, "g1", 0),)),
        ):
            other = ScenarioSpec(**{**base, **tweak})
            assert scenario_cache_key(other) != ref


class TestCampaignCache:
    def spec(self, **overrides):
        base = dict(topology=TOPO, sends=SENDS, seed=3, name="cell")
        base.update(overrides)
        return ScenarioSpec(**base)

    def ok_row(self, spec, **extra):
        row = {"name": spec.name, "spec": spec.to_json(), "status": "ok",
               "rounds": 7, "index": 4}
        row.update(extra)
        return row

    def test_roundtrip_strips_the_grid_index(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        spec = self.spec()
        assert cache.get(spec) is None  # cold
        assert cache.put(spec, self.ok_row(spec))
        hit = cache.get(spec)
        assert hit is not None and "index" not in hit
        assert hit["rounds"] == 7
        assert cache.stats() == {"hits": 1, "misses": 1, "stored": 1}

    def test_stored_bytes_are_the_json_dump_rendering(self, tmp_path):
        # ``put`` writes through ``json.dumps`` (the C encoder); the file
        # must stay what ``json.dump`` wrote, ``default=str`` included.
        cache = CampaignCache(str(tmp_path))
        spec = self.spec()
        row = self.ok_row(spec, scope=frozenset({2}), nested={"b": (1, 2), "a": None})
        assert cache.put(spec, row)
        body = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": cache.key_for(spec),
            "row": {k: v for k, v in row.items() if k != "index"},
        }
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(body, fh, sort_keys=True, default=str)
            fh.write("\n")
        assert read_bytes(cache.path_for(spec)) == read_bytes(reference)
        assert b"frozenset({2})" in read_bytes(reference)

    def test_hit_is_relabelled_from_the_live_spec(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        spec = self.spec(name="first-campaign")
        cache.put(spec, self.ok_row(spec))
        twin = self.spec(name="second-campaign")  # same cell, new label
        hit = cache.get(twin)
        assert hit["name"] == "second-campaign"
        assert hit["spec"] == twin.to_json()

    def test_failed_rows_are_never_stored_nor_hit(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        spec = self.spec()
        assert not cache.put(spec, {"status": "failed", "error": "boom"})
        assert cache.get(spec) is None
        # ...even if a failed row is smuggled into the file on disk.
        path = cache.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"schema": 1, "row": {"status": "failed"}}, fh)
        assert cache.get(spec) is None

    def test_corrupt_or_alien_entries_degrade_to_misses(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        spec = self.spec()
        path = cache.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for garbage in ('{"torn', '[]', '{"schema": 99, "row": {"status": "ok"}}'):
            with open(path, "w") as fh:
                fh.write(garbage)
            assert cache.get(spec) is None

    def test_ensure_cache_coerces_paths(self, tmp_path):
        cache = ensure_cache(str(tmp_path))
        assert isinstance(cache, CampaignCache)
        assert ensure_cache(cache) is cache
        assert ensure_cache(None) is None
        with pytest.raises(TypeError):
            ensure_cache(42)


class TestWarmSweep:
    def test_matrix_rerun_executes_nothing_and_matches_bytes(self, tmp_path):
        campaign = matrix_campaign(seeds=20)
        cache_dir = str(tmp_path / "cache")
        a, b = str(tmp_path / "cold"), str(tmp_path / "warm")
        cold = run_campaign(campaign, cache=cache_dir, out_dir=a)
        assert cold.executed == len(campaign.specs()) == 20 * 2 * 2
        assert cold.summary["failed"] == 0

        warm = run_campaign(campaign, cache=cache_dir, out_dir=b)
        assert warm.executed == 0
        assert warm.cached == len(campaign.specs())
        assert read_bytes(f"{a}/results.jsonl") == read_bytes(f"{b}/results.jsonl")

    def test_streamed_warm_rerun_is_byte_identical(self, tmp_path):
        campaign = small_campaign()
        cache_dir = str(tmp_path / "cache")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_campaign(campaign, cache=cache_dir, out_dir=a)
        warm = run_campaign(campaign, cache=cache_dir, out_dir=b)
        assert warm.executed == 0
        assert read_bytes(f"{a}/results.jsonl") == read_bytes(f"{b}/results.jsonl")
        assert read_bytes(f"{a}/manifest.json") == read_bytes(f"{b}/manifest.json")

    def test_cache_only_serves_cells_it_has_seen(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(small_campaign(seeds=(0,)), cache=cache_dir)
        grown = run_campaign(small_campaign(seeds=(0, 1)), cache=cache_dir)
        assert grown.cached == 2  # the seed-0 cells
        assert grown.executed == 2  # the new seed-1 cells


class TestSerialWorkersContradiction:
    def test_serial_mode_with_workers_raises(self):
        with pytest.raises(ValueError, match="serial"):
            run_campaign(small_campaign(), mode="serial", workers=8)

    def test_resume_without_out_dir_raises(self):
        with pytest.raises(ValueError, match="out_dir"):
            run_campaign(small_campaign(), resume=True)

    def test_unknown_mode_still_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_campaign(small_campaign(), mode="turbo")


class TestStreaming:
    def test_manifest_stream_matches_json_dump(self, tmp_path):
        campaign = small_campaign()
        out = str(tmp_path / "s")
        run_campaign(campaign, out_dir=out)
        manifest = {
            "schema": 1,
            "name": campaign.name,
            "campaign_hash": campaign.campaign_hash(),
            "scenarios": [
                {
                    "index": index,
                    "name": spec.name,
                    "spec_hash": spec.spec_hash(),
                    "spec": spec.to_json(),
                }
                for index, spec in enumerate(campaign.specs())
            ],
        }
        expected = (
            json.dumps(manifest, sort_keys=True, indent=2, default=str) + "\n"
        ).encode()
        assert read_bytes(f"{out}/manifest.json") == expected

    def test_empty_manifest_stream_matches_json_dump(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        write_manifest(path, name="void", campaign_hash="", specs=())
        expected = (
            json.dumps(
                {"schema": 1, "name": "void", "campaign_hash": "", "scenarios": []},
                sort_keys=True,
                indent=2,
            )
            + "\n"
        ).encode()
        assert read_bytes(path) == expected

    def test_summary_line_re_aggregates_from_the_rows(self, tmp_path):
        out = str(tmp_path / "s")
        report = run_campaign(small_campaign(), out_dir=out)
        assert summarize_results_file(f"{out}/results.jsonl") == report.summary


class TestResume:
    def interrupted_sweep(self, tmp_path, stop_at, torn=True):
        campaign = small_campaign()
        out = str(tmp_path / "part")
        count = {"n": 0}

        def bomb(row):
            count["n"] += 1
            if count["n"] == stop_at:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(campaign, out_dir=out, on_row=bomb)
        if torn:
            with open(f"{out}/results.jsonl", "a") as fh:
                fh.write('{"type": "row", "index": 99, "trunc')
        return campaign, out

    def test_resume_at_half_matches_uninterrupted_bytes(self, tmp_path):
        campaign, out = self.interrupted_sweep(tmp_path, stop_at=2)
        full = str(tmp_path / "full")
        run_campaign(campaign, out_dir=full)

        report = run_campaign(campaign, out_dir=out, resume=True)
        assert report.resumed == 1  # the bombed row was never written
        assert report.executed == 3
        assert read_bytes(f"{out}/results.jsonl") == read_bytes(
            f"{full}/results.jsonl"
        )
        assert read_bytes(f"{out}/manifest.json") == read_bytes(
            f"{full}/manifest.json"
        )

    def test_resuming_a_complete_sweep_is_a_no_op(self, tmp_path):
        campaign = small_campaign()
        out = str(tmp_path / "done")
        run_campaign(campaign, out_dir=out)
        before = read_bytes(f"{out}/results.jsonl")
        report = run_campaign(campaign, out_dir=out, resume=True)
        assert report.executed == 0
        assert report.resumed == len(campaign.specs())
        assert read_bytes(f"{out}/results.jsonl") == before

    def test_resume_refuses_a_foreign_artifact(self, tmp_path):
        _, out = self.interrupted_sweep(tmp_path, stop_at=2, torn=False)
        other = small_campaign(name="other", seeds=(5, 6))
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(other, out_dir=out, resume=True)

    def test_scan_stops_at_an_out_of_sequence_row(self, tmp_path):
        campaign, out = self.interrupted_sweep(tmp_path, stop_at=2, torn=False)
        path = f"{out}/results.jsonl"
        with open(path, "a") as fh:
            fh.write('{"type": "row", "index": 3}\n')  # skips index 1
        seen = []
        scan = scan_partial_results(
            path,
            campaign_hash=campaign.campaign_hash(),
            scenarios=len(campaign.specs()),
            expected=list(range(len(campaign.specs()))),
            consume=seen.append,
        )
        assert not scan.complete
        assert scan.rows == len(seen) == 1
        assert seen[0]["index"] == 0

    def test_premature_summary_line_is_corruption(self, tmp_path):
        campaign, out = self.interrupted_sweep(tmp_path, stop_at=2, torn=False)
        path = f"{out}/results.jsonl"
        with open(path, "a") as fh:
            fh.write('{"type": "summary", "scenarios": 1}\n')
        with pytest.raises(ValueError, match="corrupt"):
            scan_partial_results(
                path,
                campaign_hash=campaign.campaign_hash(),
                scenarios=len(campaign.specs()),
                expected=list(range(len(campaign.specs()))),
            )

    def test_resume_with_cache_replays_instead_of_executing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        campaign, out = self.interrupted_sweep(tmp_path, stop_at=2)
        run_campaign(campaign, cache=cache_dir)  # warm the cache elsewhere
        report = run_campaign(
            campaign, out_dir=out, resume=True, cache=cache_dir
        )
        assert report.executed == 0 and report.cached == 3
        full = str(tmp_path / "full")
        run_campaign(campaign, out_dir=full)
        assert read_bytes(f"{out}/results.jsonl") == read_bytes(
            f"{full}/results.jsonl"
        )


class TestSharding:
    def test_shards_partition_the_grid(self):
        specs = matrix_campaign(seeds=6).specs()
        cells = list(enumerate(specs))
        pieces = [shard_cells(cells, 3, k) for k in range(3)]
        assert sum(len(p) for p in pieces) == len(cells)
        merged = sorted(
            (index for piece in pieces for index, _ in piece)
        )
        assert merged == list(range(len(cells)))
        for k, piece in enumerate(pieces):
            assert all(shard_of(spec, 3) == k for _, spec in piece)

    def test_shard_bounds_are_checked(self):
        spec = matrix_campaign(seeds=1).specs()[0]
        with pytest.raises(ValueError):
            shard_of(spec, 0)
        with pytest.raises(ValueError):
            shard_cells([], 2, 2)

    def test_sharded_artifacts_merge_into_the_full_sweep(self, tmp_path):
        campaign = small_campaign()
        full = str(tmp_path / "full")
        run_campaign(campaign, out_dir=full)
        full_rows = {}
        with open(f"{full}/results.jsonl") as fh:
            for line in fh:
                record = json.loads(line)
                if record.get("type") == "row":
                    full_rows[record["index"]] = line

        merged = {}
        owned = 0
        for k in range(2):
            out = str(tmp_path / f"shard{k}")
            report = run_campaign(campaign, out_dir=out, shard=(k, 2))
            assert report.shard == (k, 2)
            owned += report.summary["scenarios"]
            with open(f"{out}/results.jsonl") as fh:
                meta = json.loads(fh.readline())
                assert meta["shard"] == [k, 2]
                assert meta["scenarios"] == report.summary["scenarios"]
                for line in fh:
                    record = json.loads(line)
                    if record.get("type") == "row":
                        merged[record["index"]] = line
        assert owned == len(campaign.specs())
        assert merged == full_rows  # same bytes, same global indices

    def test_sharded_sweep_resumes_too(self, tmp_path):
        campaign = small_campaign(seeds=(0, 1, 2, 3))
        cells = shard_cells(list(enumerate(campaign.specs())), 2, 0)
        if len(cells) < 2:
            pytest.skip("shard 0 too small to interrupt")
        out = str(tmp_path / "shard")
        count = {"n": 0}

        def bomb(row):
            count["n"] += 1
            if count["n"] == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(campaign, out_dir=out, shard=(0, 2), on_row=bomb)
        report = run_campaign(campaign, out_dir=out, shard=(0, 2), resume=True)
        assert report.resumed + report.executed == len(cells)
        ref = str(tmp_path / "ref")
        run_campaign(campaign, out_dir=ref, shard=(0, 2))
        assert read_bytes(f"{out}/results.jsonl") == read_bytes(
            f"{ref}/results.jsonl"
        )
