"""Triage of a red sweep: labels, one judgement, rediscovery, the CLI.

The red sweeps run the nemesis grid's kernel cells under the
``supersede-wait`` patch
(:func:`tests.substrates._oracle.supersede_wait_everywhere`).  A patch
is not part of a cell's address, so a patched sweep uses no cache but a
``tmp_path`` one that only it writes.
"""

import os

import pytest

from repro.campaign import executor
from repro.campaign.__main__ import is_clean, main, nemesis_campaign
from repro.campaign.cache import CampaignCache
from repro.campaign.executor import run_campaign
from repro.campaign.triage import triage, violated_properties
from repro.faults import shrink
from repro.faults.plan import FaultPlan
from repro.faults.shrink import load_repro, replay_repro
from repro.props.batch import verdicts_ok
from repro.workloads.spec import ScenarioSpec
from tests.groups import _oracle as groups_oracle
from tests.substrates._oracle import supersede_wait_everywhere


def kernel_cells(seeds):
    """The nemesis grid's kernel cells at ``seeds``."""
    return [
        spec for spec in nemesis_campaign(seeds).specs() if spec.backend == "kernel"
    ]


def red_rows(specs, cache=None):
    return [r for r in run_campaign(specs, cache=cache).rows if not is_clean(r)]


def judged(spec):
    """A cell's violation labels, run the way a sweep runs it."""
    return violated_properties(executor.execute_spec((0, spec)))


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


@pytest.fixture
def executed(monkeypatch):
    """The spec hash of every cell the executor runs."""
    seen = []
    execute_spec = executor.execute_spec

    def spy(unit):
        seen.append(unit[1].spec_hash())
        return execute_spec(unit)

    monkeypatch.setattr(executor, "execute_spec", spy)
    return seen


@pytest.fixture
def supersede_wait(monkeypatch):
    supersede_wait_everywhere(monkeypatch)


@pytest.fixture(scope="module")
def rediscovery():
    """The patched kernel cells at ``--seeds 2``: red rows and ledger."""
    with pytest.MonkeyPatch.context() as patch:
        supersede_wait_everywhere(patch)
        rows = red_rows(kernel_cells(2))
        return rows, triage(rows)


class TestOneJudgement:
    """A shrink probe is run, judged and cached like a sweep cell."""

    def test_every_probe_goes_through_execute_spec(
        self, monkeypatch, supersede_wait, probes, executed
    ):
        harness_runs = []
        run_harness = shrink.run_harness

        def spy_harness(harness, spec):
            harness_runs.append(harness)
            return run_harness(harness, spec)

        monkeypatch.setattr(shrink, "run_harness", spy_harness)
        rows = red_rows(kernel_cells(2))
        ledger = triage(rows)
        assert probes and {s.spec_hash() for s in probes} <= set(executed)
        # The named harness runs once per repro payload, never per probe.
        assert harness_runs == ["scenario"] * len(ledger)
        # Every record shrank to a 1-minimal plan: it still violates,
        # and dropping any one of its events makes the run clean.
        for record in ledger:
            spec = ScenarioSpec.from_json(record["payload"]["spec"])
            minimal = FaultPlan.from_json(record["minimal_plan"])
            assert judged(spec.faulted(minimal))
            for event in minimal:
                assert not judged(spec.faulted(minimal.without(event)))

    def test_probes_share_the_sweep_cache(
        self, tmp_path, supersede_wait, probes, executed
    ):
        cache = CampaignCache(str(tmp_path / "cache"))
        rows = red_rows(kernel_cells(2), cache=cache)
        first = triage(rows, cache=cache)
        assert probes
        for candidate in probes:
            assert cache.get(candidate) is not None
        probed, ran = len(probes), len(executed)

        second = triage(rows, cache=CampaignCache(cache.root))
        assert len(probes) == 2 * probed  # the same ddmin walk ...
        assert len(executed) == ran  # ... answered from the cache
        assert second == first

    def test_there_is_no_harness_flag_to_mistype(self, capsys):
        with pytest.raises(SystemExit) as error:
            main(["--harness", "typo"])
        assert error.value.code == 2
        assert "--harness" in capsys.readouterr().err


class TestDeterminism:
    def test_same_seeds_same_sweep(self, supersede_wait):
        first = run_campaign(kernel_cells(2))
        second = run_campaign(kernel_cells(2))
        assert first.rows == second.rows
        assert first.summary == second.summary
        assert [r for r in first.rows if not is_clean(r)]


class TestCacheReuse:
    def test_a_second_sweep_hits_the_shared_cache(
        self, tmp_path, supersede_wait, executed
    ):
        cache = CampaignCache(str(tmp_path / "cache"))
        first = run_campaign(kernel_cells(2), cache=cache)
        ran = len(executed)
        assert ran == first.executed == len(first.rows)

        second = run_campaign(kernel_cells(2), cache=CampaignCache(cache.root))
        assert len(executed) == ran  # nothing ran twice
        assert (second.executed, second.cached) == (0, len(first.rows))
        assert second.rows == first.rows


class TestViolatedProperties:
    def test_clean_row(self):
        row = {"status": "ok", "verdicts": {"integrity": 0}, "truncated": False}
        assert violated_properties(row) == []

    def test_checker_violations_are_sorted(self):
        row = {
            "status": "ok",
            "verdicts": {"termination": 2, "integrity": 1, "ordering": 0},
            "truncated": False,
        }
        assert violated_properties(row) == [
            "integrity", "termination",
        ]

    def test_truncation_is_a_pseudo_property(self):
        row = {"status": "ok", "verdicts": {}, "truncated": True}
        assert violated_properties(row) == ["truncated"]

    def test_harness_crash_is_labelled_by_error_type(self):
        row = {"status": "failed", "error": "SimulationError('x')"}
        assert violated_properties(row) == [
            "harness-error:SimulationError",
        ]

    def test_admissibility_rejection_is_not_a_violation(self):
        # The auditor rejecting an out-of-envelope adversary is the
        # model working, not the system failing: an inadmissible probe
        # is counted separately and never triaged.
        row = {"status": "failed", "error": "AdmissibilityError('x')"}
        assert violated_properties(row) == []


class TestRediscovery:
    """The superseded-proposer stall, found by the grid with zero
    hand-written plans: the ``supersede-wait`` patch on the kernel
    cells."""

    def test_the_stall_is_found_at_seed_1(self, rediscovery):
        rows, _ = rediscovery
        assert rows[0]["name"].startswith("disjoint3x3:s1:vanilla:kernel:chaos")
        assert rows[0]["truncated"]

    def test_the_witness_shrinks_to_the_omega_trigger(self, rediscovery):
        _, ledger = rediscovery
        first = ledger[0]
        assert first["properties"] == ["termination", "truncated"]
        assert first["minimal_events"] == 1
        assert first["shrink"]["probes"] <= 5
        kinds = {e["kind"] for e in first["minimal_plan"]["events"]}
        assert kinds == {"omega_late"}

    def test_the_repro_replays_deterministically(self, rediscovery, supersede_wait):
        _, ledger = rediscovery
        payload = ledger[0]["payload"]  # no out_dir: payload rides along
        replay = replay_repro(payload)
        assert replay["verdicts"] == payload["verdicts"]
        assert replay["truncated"] == payload["truncated"]
        assert not verdicts_ok(replay["verdicts"]) or replay["truncated"]

    def test_the_unquirked_cells_are_clean(self):
        # The patch is off unless a test turns it on: the same cells
        # run the shipped proposer, which abandons a superseded ballot.
        rows = red_rows(kernel_cells(2))
        assert rows == [] and triage(rows) == []

    def test_two_runs_write_the_same_ledger(self, tmp_path, supersede_wait):
        written = []
        for run in ("a", "b"):
            out = tmp_path / run
            triage(red_rows(kernel_cells(2)), out_dir=str(out))
            written.append(
                {name: (out / name).read_bytes() for name in os.listdir(out)}
            )
        assert written[0] == written[1]
        assert "triage.json" in written[0]


class TestExitStatus:
    """Any finding fails the sweep, and a red sweep triages itself."""

    def test_the_red_cli_path(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            "repro.groups.families.faulty_edges_at",
            groups_oracle.faulty_edges_at,
        )
        out = str(tmp_path)
        assert main(["--grid", "nemesis", "--seeds", "0:1", "--out", out]) == 1
        assert "distinct violations" in capsys.readouterr().out
        records = load_repro(os.path.join(out, "triage.json"))["records"]
        assert records
        repros = sorted(name for name in os.listdir(out) if name.startswith("repro-"))
        assert repros == sorted(record["repro"] for record in records)
        for name in repros:
            payload = load_repro(os.path.join(out, name))
            assert replay_repro(payload)["verdicts"] == payload["verdicts"]

    def test_a_clean_sweep_exits_0(self, tmp_path, capsys):
        # The red path's seeds without the faultiness patch: green, so
        # no row table is printed and no triage files are written.
        out = str(tmp_path)
        assert main(["--grid", "nemesis", "--seeds", "0:1", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "| status |" not in printed and "distinct violations" not in printed
        assert sorted(os.listdir(out)) == ["manifest.json", "results.jsonl"]
