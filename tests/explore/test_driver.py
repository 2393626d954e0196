"""The explorer driver: determinism, cache reuse, triage, exit status."""

from dataclasses import replace

import pytest

from repro.explore import driver
from repro.explore.driver import Explorer
from repro.explore.__main__ import base_cells, main
from repro.faults import shrink
from repro.faults.plan import FaultPlan
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


def searched(seed, *bursts):
    """The cells a campaign on the kernel base evaluates, in order, and
    its final report, running ``bursts`` iterations at a time."""
    explorer = Explorer([kernel_base()], seed=seed)
    cells = []
    evaluate = explorer._evaluate

    def spy(spec):
        cells.append(spec.spec_hash())
        return evaluate(spec)

    explorer._evaluate = spy
    for burst in bursts:
        report = explorer.run(iterations=burst)
    return cells, stripped(report)


class TestConstruction:
    def test_needs_bases(self):
        with pytest.raises(ValueError):
            Explorer([])

    def test_needs_a_budget(self):
        with pytest.raises(ValueError):
            Explorer([kernel_base()]).run()

    @pytest.mark.parametrize(
        "argv",
        [["--iterations", "0"], ["--iterations", "-5"], ["--wall-budget", "0"],
         ["--backends", "quantum"],
         ["--backends", "engine", "--quirks", "supersede-wait"]],
    )
    def test_bad_input_fails_at_the_parser(self, argv, capsys):
        """Not a green soak that ran nothing, nor a traceback."""
        with pytest.raises(SystemExit) as error:
            main(argv)
        assert error.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        assert searched(3, 16) == searched(3, 16)

    def test_different_seeds_diverge(self):
        assert searched(3, 16)[0] != searched(4, 16)[0]

    def test_run_resumes_the_same_search(self):
        # One 16-step run == two 8-step bursts on the same instance
        # (the soak lane strings bursts under one wall clock).
        whole = searched(3, 16)
        resumed = searched(3, 8, 8)
        assert resumed[1]["iterations"] == 16
        assert resumed == whole


class TestCacheReuse:
    def test_second_campaign_hits_the_shared_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = Explorer([kernel_base()], seed=3, cache=cache_dir)
        report_first = first.run(iterations=12)
        second = Explorer([kernel_base()], seed=3, cache=cache_dir)
        report_second = second.run(iterations=12)
        assert second.cache_hits > 0
        assert second.executed < first.executed or first.executed == 0
        first_json, second_json = stripped(report_first), stripped(report_second)
        first_json.pop("cache"), second_json.pop("cache")
        assert second_json == first_json

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
        # Probes are judged, not counted as search iterations.
        assert report.iterations == BUDGET_ITERATIONS
        # Every record shrank to a 1-minimal plan: it still violates,
        # and dropping any one of its events makes the run clean.
        for record in report.triage:
            spec = replace(explorer.bases[0], seed=record["witness"]["seed"])
            minimal = FaultPlan.from_json(record["minimal_plan"])
            assert explorer._violates(spec.faulted(minimal))
            for event in minimal:
                assert not explorer._violates(
                    spec.faulted(minimal.without(event))
                )

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


class TestExitStatus:
    """Any finding fails the run: there is no allow-list to match."""

    def test_the_quirked_rediscovery_exits_1(self, capsys):
        argv = ["--backends", "kernel", "--quirks", "supersede-wait",
                "--iterations", str(BUDGET_ITERATIONS), "--seed", "7"]
        assert main(argv) == 1
        assert "distinct violations" in capsys.readouterr().out

    def test_a_clean_search_exits_0(self):
        assert main(["--backends", "kernel", "--iterations", "8"]) == 0


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
