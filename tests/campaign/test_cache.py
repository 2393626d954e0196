"""The campaign scale-out layer: cache, streaming, interrupted sweeps."""

import json
import os

import pytest

from repro.campaign.aggregate import sweep_hash, write_manifest
from repro.campaign.cache import (
    CACHE_SCHEMA_VERSION,
    CampaignCache,
    ensure_cache,
)
from repro.campaign.executor import run_campaign
from repro.campaign.grid import Campaign, case
from repro.faults.nemesis import random_plan
from repro.metrics.sweep import summarize_results_file
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
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


ARTIFACTS = ("manifest.json", "results.jsonl")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestCacheKey:
    def test_key_ignores_the_label(self):
        a = ScenarioSpec(topology=TOPO, sends=SENDS, seed=3, name="one")
        b = ScenarioSpec(topology=TOPO, sends=SENDS, seed=3, name="two")
        assert a.spec_hash() == b.spec_hash()

    def test_key_tracks_every_triage_coordinate(self):
        base = dict(topology=TOPO, sends=SENDS, seed=3)
        ref = ScenarioSpec(**base).spec_hash()
        for tweak in (
            dict(seed=4),
            dict(backend="kernel"),
            dict(faults=PLAN),
            dict(sends=(Send(1, "g1", 0),)),
        ):
            other = ScenarioSpec(**{**base, **tweak})
            assert other.spec_hash() != ref


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

    def test_stored_bytes_are_the_json_dump_rendering(self, tmp_path):
        # ``put`` writes through ``json.dumps`` (the C encoder); the file
        # must stay what ``json.dump`` wrote, ``default=str`` included.
        cache = CampaignCache(str(tmp_path))
        spec = self.spec()
        row = self.ok_row(spec, scope=frozenset({2}), nested={"b": (1, 2), "a": None})
        assert cache.put(spec, row)
        body = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": spec.spec_hash(),
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
            "campaign_hash": sweep_hash(campaign.name, campaign.specs()),
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
        write_manifest(path, name="void", campaign_hash="", specs=(), inventory=())
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


class TestInterrupt:
    """An interrupted sweep continues by rerunning it over its cache."""

    def interrupted_sweep(self, tmp_path, stop_at, workers):
        """Run the small sweep over a fresh cache and stop it as the
        ``stop_at``-th row arrives: that row is cached, not written."""
        campaign = small_campaign()
        out, cache_dir = str(tmp_path / "part"), str(tmp_path / "cache")
        count = {"n": 0}

        def bomb(row):
            count["n"] += 1
            if count["n"] == stop_at:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                campaign, workers=workers, out_dir=out, cache=cache_dir, on_row=bomb
            )
        # A kill mid-write leaves a torn line after the row prefix.
        with open(f"{out}/results.jsonl", "a") as fh:
            fh.write('{"type": "row", "index": 99, "trunc')
        return campaign, out, cache_dir

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_a_rerun_matches_the_uninterrupted_bytes(self, tmp_path, workers):
        stop_at = 2
        campaign, out, cache_dir = self.interrupted_sweep(tmp_path, stop_at, workers)
        # The meta line, the rows written before the interrupt, the torn tail.
        lines = read_bytes(f"{out}/results.jsonl").split(b"\n")
        assert len(lines) == 1 + (stop_at - 1) + 1
        full = str(tmp_path / "full")
        run_campaign(campaign, out_dir=full)

        report = run_campaign(campaign, workers=workers, out_dir=out, cache=cache_dir)
        # A pool worker stores every cell it finished, drained or not.
        assert report.cached >= stop_at
        if workers == 1:
            assert report.cached == stop_at
        assert report.executed + report.cached == len(campaign.specs())
        for name in ARTIFACTS:
            assert read_bytes(f"{out}/{name}") == read_bytes(f"{full}/{name}")


class TestResume:
    def test_resuming_a_complete_sweep_is_a_no_op(self, tmp_path):
        """Rerunning a finished sweep into its own directory over its
        cache executes nothing and leaves both artifacts as they were."""
        campaign = small_campaign()
        out, cache_dir = str(tmp_path / "done"), str(tmp_path / "cache")
        run_campaign(campaign, out_dir=out, cache=cache_dir)
        before = {name: read_bytes(f"{out}/{name}") for name in ARTIFACTS}
        report = run_campaign(campaign, out_dir=out, cache=cache_dir)
        assert report.executed == 0
        assert report.cached == len(campaign.specs())
        assert {name: read_bytes(f"{out}/{name}") for name in ARTIFACTS} == before
