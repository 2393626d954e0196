"""The explorer driver: determinism, cache reuse, triage, baselines."""

import json

import pytest

from repro.explore import driver
from repro.explore.driver import (
    Explorer,
    load_baseline,
    matches_baseline,
)
from repro.explore.__main__ import base_cells, main
from repro.faults import shrink
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology
from tests.explore.test_rediscovery import BUDGET_ITERATIONS

TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))


def kernel_base(**overrides):
    base = dict(
        topology=TOPO,
        sends=(Send(1, "g1", 0), Send(4, "g2", 0)),
        backend="kernel",
        max_rounds=240,
        name="kernel-base",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def stripped(report):
    """The report minus wall-clock noise (elapsed varies per host)."""
    data = report.to_json()
    data.pop("elapsed")
    return data


class TestConstruction:
    def test_needs_bases_and_a_known_strategy(self):
        with pytest.raises(ValueError):
            Explorer([])
        with pytest.raises(ValueError):
            Explorer([kernel_base()], strategy="psychic")
        with pytest.raises(ValueError):
            Explorer([kernel_base()], epsilon=0.0)

    def test_needs_a_budget(self):
        with pytest.raises(ValueError):
            Explorer([kernel_base()]).run()


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        a = Explorer([kernel_base()], seed=3).run(iterations=16)
        b = Explorer([kernel_base()], seed=3).run(iterations=16)
        assert stripped(a) == stripped(b)

    def test_different_seeds_diverge(self):
        a = Explorer([kernel_base()], seed=3).run(iterations=16)
        b = Explorer([kernel_base()], seed=4).run(iterations=16)
        assert a.curve != b.curve

    def test_run_resumes_the_same_search(self):
        # One 16-step run == two 8-step bursts on the same instance
        # (the soak lane strings bursts under one wall clock).
        whole = Explorer([kernel_base()], seed=3).run(iterations=16)
        split = Explorer([kernel_base()], seed=3)
        split.run(iterations=8)
        resumed = split.run(iterations=8)
        assert resumed.iterations == 16
        assert stripped(resumed) == stripped(whole)


class TestStrategies:
    def test_random_strategy_never_consults_the_corpus(self):
        explorer = Explorer([kernel_base()], seed=3, strategy="random")

        def forbidden(rng):  # pragma: no cover - the point is it never runs
            raise AssertionError("random strategy picked a corpus parent")

        explorer.corpus.pick = forbidden
        explorer.run(iterations=12)
        assert explorer.corpus.evaluated == 12

    def test_guided_breeds_from_the_corpus(self):
        explorer = Explorer([kernel_base()], seed=3, epsilon=0.25)
        explorer.run(iterations=24)
        assert explorer.corpus.admitted >= 1
        # With epsilon=0.25 and a non-empty corpus, some of 24 draws
        # must be mutants; mutants execute (not cache-replay) unless
        # they collide with an earlier cell.
        assert explorer.executed <= 24


class TestCacheReuse:
    def test_second_campaign_hits_the_shared_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = Explorer([kernel_base()], seed=3, cache=cache_dir)
        report_first = first.run(iterations=12)
        second = Explorer([kernel_base()], seed=3, cache=cache_dir)
        report_second = second.run(iterations=12)
        assert second.cache_hits > 0
        assert second.executed < first.executed or first.executed == 0
        assert report_second.coverage == report_first.coverage

    def test_cache_stats_surface_in_the_report(self, tmp_path):
        explorer = Explorer(
            [kernel_base()], seed=3, cache=str(tmp_path / "cache")
        )
        report = explorer.run(iterations=4)
        assert report.cache is not None
        assert report.cache["stored"] + report.cache["hits"] >= 1


@pytest.fixture
def probes(monkeypatch):
    """Every candidate spec a shrinker asks its predicate about."""
    seen = []
    fails = shrink.PlanShrinker._fails

    def spy(self, plan):
        seen.append(self.spec.faulted(plan))
        return fails(self, plan)

    monkeypatch.setattr(shrink.PlanShrinker, "_fails", spy)
    return seen


def quirked(**kwargs):
    """The campaign that triages the planted stall; run it for the
    documented rediscovery budget (``BUDGET_ITERATIONS``)."""
    return Explorer(
        [kernel_base(quirks=("supersede-wait",))], seed=7, **kwargs
    )


class TestOneJudgement:
    """A shrink probe is run, judged and cached like a search iteration."""

    def test_every_probe_goes_through_execute_spec(self, monkeypatch, probes):
        executed, harness_runs = set(), []
        execute_spec, run_harness = driver.execute_spec, shrink.run_harness

        def spy_execute(unit):
            executed.add(unit[1].spec_hash())
            return execute_spec(unit)

        def spy_harness(harness, spec):
            harness_runs.append(harness)
            return run_harness(harness, spec)

        monkeypatch.setattr(driver, "execute_spec", spy_execute)
        monkeypatch.setattr(shrink, "run_harness", spy_harness)
        explorer = quirked()
        report = explorer.run(iterations=BUDGET_ITERATIONS)
        assert probes and {s.spec_hash() for s in probes} <= executed
        # The named harness runs once per repro payload, never per probe.
        assert harness_runs == ["scenario"] * len(report.triage)
        # Probes are judged, not accounted: the corpus saw the search only.
        assert explorer.corpus.evaluated == BUDGET_ITERATIONS
        # Every record shrank to a single event.
        assert {r["minimal_events"] for r in report.triage} == {1}

    def test_probes_share_the_campaign_cache(self, tmp_path, probes):
        cache_dir = str(tmp_path / "cache")
        first = quirked(cache=cache_dir)
        report_first = first.run(iterations=BUDGET_ITERATIONS)
        assert probes
        for candidate in probes:
            assert first.cache.get(candidate) is not None
        probed = len(probes)

        second = quirked(cache=cache_dir)
        report_second = second.run(iterations=BUDGET_ITERATIONS)
        assert len(probes) == 2 * probed  # the same ddmin walk ...
        assert second.executed == 0  # ... answered from the cache
        first_json, second_json = stripped(report_first), stripped(report_second)
        first_json.pop("cache"), second_json.pop("cache")
        assert second_json == first_json

    def test_there_is_no_harness_flag_to_mistype(self, capsys):
        with pytest.raises(SystemExit) as error:
            main(["--harness", "typo"])
        assert error.value.code == 2
        assert "--harness" in capsys.readouterr().err


class TestViolatedProperties:
    def test_clean_row(self):
        row = {"status": "ok", "verdicts": {"integrity": 0}, "truncated": False}
        assert Explorer.violated_properties(row) == []

    def test_checker_violations_are_sorted(self):
        row = {
            "status": "ok",
            "verdicts": {"termination": 2, "integrity": 1, "ordering": 0},
            "truncated": False,
        }
        assert Explorer.violated_properties(row) == [
            "integrity", "termination",
        ]

    def test_truncation_is_a_pseudo_property(self):
        row = {"status": "ok", "verdicts": {}, "truncated": True}
        assert Explorer.violated_properties(row) == ["truncated"]

    def test_harness_crash_is_labelled_by_error_type(self):
        row = {"status": "failed", "error": "SimulationError('x')"}
        assert Explorer.violated_properties(row) == [
            "harness-error:SimulationError",
        ]

    def test_admissibility_rejection_is_not_a_violation(self):
        # The auditor rejecting an out-of-envelope adversary is the
        # model working, not the system failing: an inadmissible probe
        # is counted separately and never triaged.
        row = {"status": "failed", "error": "AdmissibilityError('x')"}
        assert Explorer.violated_properties(row) == []


class TestBaseline:
    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == []

    def test_exact_entries_match_exact_keys(self):
        record = {
            "key": "scenario|truncated|abc123",
            "harness": "scenario",
            "properties": ["truncated"],
            "kinds": ["crash_burst"],
        }
        assert matches_baseline(record, "scenario|truncated|abc123")
        assert not matches_baseline(record, "scenario|truncated|def456")

    def test_kind_class_patterns_cover_a_finding_family(self):
        record = {
            "key": "scenario|truncated|abc123",
            "harness": "scenario",
            "properties": ["truncated"],
            "kinds": ["crash_burst", "link_delay"],
        }
        assert matches_baseline(record, "scenario|truncated|kind:crash_burst")
        assert not matches_baseline(
            record, "scenario|truncated|kind:omega_late"
        )
        # Harness and properties must match exactly.
        assert not matches_baseline(
            record, "broadcast|truncated|kind:crash_burst"
        )
        assert not matches_baseline(
            record, "scenario|termination,truncated|kind:crash_burst"
        )

    def test_triage_records_carry_their_kind_class(self):
        explorer = Explorer(
            [kernel_base(quirks=("supersede-wait",))], seed=7
        )
        explorer.run(iterations=24)
        for record in explorer.triage.values():
            assert record["kinds"] == sorted(set(record["kinds"]))

    def test_new_keys_against_a_baseline(self, tmp_path):
        report = quirked().run(iterations=BUDGET_ITERATIONS)
        assert report.triage_keys  # the quirk yields violations
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"known": report.triage_keys}))
        assert report.new_keys(load_baseline(str(path))) == []
        partial = set(report.triage_keys[1:])
        assert report.new_keys(partial) == [report.triage_keys[0]]


class TestBaseCells:
    def test_one_cell_per_backend(self):
        cells = base_cells(("engine", "kernel", "async"))
        assert [c.backend for c in cells] == ["engine", "kernel", "async"]

    def test_quirks_attach_to_the_kernel_cell_only(self):
        cells = base_cells(
            ("engine", "kernel"), quirks=("supersede-wait",)
        )
        by_backend = {c.backend: c for c in cells}
        assert by_backend["kernel"].quirks == ("supersede-wait",)
        assert by_backend["engine"].quirks == ()

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError):
            base_cells(("engine", "quantum"))
