"""Tests for the random nemesis: plan generation and the nemesis grid.

``test_grid_passes_every_checker`` is the acceptance gate of the fault
layer: Algorithm 1 on Figure 1, a ring and a hub (engine and async
backends) and all three backends on a disjoint grid, under every
injector mix, 12 open-loop sends a cell, across 6 plans — every §2.2
checker must hold and every run must stay inside the admissibility
envelope (the auditor raises otherwise, which surfaces here as a
scenario failure).  ``test_grid_catches_transient_faultiness`` shows the
same grid is red on the retired faultiness body.
"""

import pytest

from repro.campaign.__main__ import nemesis_campaign
from repro.campaign.executor import run_campaign
from repro.faults.nemesis import MIXES, random_plan
from repro.faults.plan import DETECTOR_KINDS, EVENT_KINDS, LINK_KINDS
from repro.model.errors import ModelError
from tests.groups import _oracle


def red_cells(report, rows):
    """Names of the rows that failed or violated a checked property."""
    assert report.summary["scenarios"] == len(rows)
    return [
        row["name"]
        for row in rows
        if row["status"] != "ok" or any(row["verdicts"].values())
    ]


class TestRandomPlan:
    def test_same_seed_same_plan(self):
        for mix in MIXES:
            a = random_plan(11, mix, process_count=5, groups=("g1", "g2"))
            b = random_plan(11, mix, process_count=5, groups=("g1", "g2"))
            assert a == b
            assert a.plan_hash() == b.plan_hash()

    def test_different_seeds_differ(self):
        plans = {random_plan(seed, "full", process_count=5).plan_hash()
                 for seed in range(10)}
        assert len(plans) > 1

    def test_unknown_mix_is_rejected(self):
        with pytest.raises(ModelError):
            random_plan(0, "everything")

    def test_mixes_draw_from_their_kinds(self):
        for seed in range(10):
            links = random_plan(seed, "links", process_count=5)
            assert {e.kind for e in links.events} <= set(LINK_KINDS)
            detectors = random_plan(seed, "detectors", groups=("g1",))
            assert {e.kind for e in detectors.events} <= set(DETECTOR_KINDS)

    def test_every_kind_is_drawn_by_some_mix(self):
        """No fault kind is reachable only by hand: the nemesis grid
        draws through the named mixes alone."""
        drawn = {
            event.kind
            for mix in MIXES
            for seed in range(100)
            for event in random_plan(
                seed, mix, process_count=5, groups=("g1", "g2")
            ).events
        }
        assert set(EVENT_KINDS) - drawn == set()

    def test_every_plan_has_a_finite_horizon(self):
        for mix in MIXES:
            for seed in range(20):
                plan = random_plan(
                    seed, mix, process_count=5, groups=("g1",)
                )
                assert plan.horizon() < 100


class TestNemesisGrid:
    BASES = {
        "figure1": {"engine", "async"},
        "ring5": {"engine", "async"},
        "hub4": {"engine", "async"},
        "disjoint3x3": {"engine", "kernel", "async"},
    }

    def test_grid_covers_bases_backends_and_mixes(self):
        specs = nemesis_campaign(seeds=2).specs()
        assert len(specs) == 54 * 2
        cells = {}
        for spec in specs:
            base, seed, _, backend, mix = spec.name.split(":")[:5]
            cells.setdefault((base, backend, mix), []).append(seed)
            assert spec.faults is not None and len(spec.sends) == 12
        assert set(cells) == {
            (base, backend, mix)
            for base, backends in self.BASES.items()
            for backend in backends
            for mix in MIXES
        }
        assert all(seeds == ["s0", "s1"] for seeds in cells.values())

    def test_kernel_runs_only_on_the_disjoint_grid(self):
        specs = nemesis_campaign(seeds=1).specs()
        assert {s.name.split(":")[0] for s in specs if s.backend == "kernel"} == {
            "disjoint3x3"
        }

    def test_grid_passes_every_checker(self):
        rows = []
        report = run_campaign(nemesis_campaign(seeds=6), on_row=rows.append)
        assert len(rows) == 324
        assert red_cells(report, rows) == []

    def test_grid_catches_transient_faultiness(self, monkeypatch):
        """With the retired body, a down-but-recovering member makes its
        intersection faulty and gamma drops the family for good; the
        grid sees the resulting Ordering violation within 5 plans."""
        monkeypatch.setattr(
            "repro.groups.families.faulty_edges_at", _oracle.faulty_edges_at
        )
        rows = []
        report = run_campaign(nemesis_campaign(seeds=5), on_row=rows.append)
        assert report.summary["violations"]["ordering"] >= 1
        assert red_cells(report, rows)[0].startswith("figure1:s0:vanilla:engine:chaos")


class TestWeightedMixes:
    """The named mixes are the one way to draw a plan (the ``weights=``
    axis this class was named for is gone)."""

    #: Frozen plan hashes: the named-mix RNG streams are pinned so
    #: refactors cannot silently re-seed them — cached rows and repro
    #: files all address plans by these hashes.
    LEGACY_FULL_S11 = (
        "aa08df74eff7bc25723c289ead559133fe206b17a2c04c38995a38a1fb0de112"
    )
    LEGACY_LINKS_S3 = (
        "68eb05743ac98cd6e80660c93a42a5555d4b57a2635cf0aaefb8ce34034ffdb6"
    )
    RECOVERY_S11 = (
        "e68bbf6ead4376697bed5030afa7c2f0a8735821ffa34ce7e7f5a23045eb6c43"
    )
    CHAOS_S11 = (
        "bcbcbf319d106c42a4b6d0901e8c560a1fda5db75044596b1f126a3f11fab065"
    )
    CRASH_S11 = (
        "5b6b817823dd9909b277c438be38ec70ba8877468ac7be24e7c2a3c1a6bb0381"
    )

    def test_legacy_stream_is_frozen(self):
        plan = random_plan(11, "full", process_count=5, groups=("g1", "g2"))
        assert plan.plan_hash() == self.LEGACY_FULL_S11
        assert (
            random_plan(3, "links", process_count=4).plan_hash()
            == self.LEGACY_LINKS_S3
        )

    def test_recovery_mix_streams_are_frozen(self):
        """The new mixes get their own pins: each named mix seeds its
        own RNG stream, so these freeze independently of (and without
        perturbing) the legacy ``full``/``links`` pins above."""
        kwargs = dict(process_count=5, groups=("g1", "g2"))
        recovery = random_plan(11, "recovery", **kwargs)
        assert recovery.plan_hash() == self.RECOVERY_S11
        assert {e.kind for e in recovery.events} <= {
            "partition", "crash_recover", "link_flaky"
        }
        chaos = random_plan(11, "chaos", **kwargs)
        assert chaos.plan_hash() == self.CHAOS_S11
        # Chaos reaches every axis: links + detectors + recovery.
        kinds = {e.kind for e in chaos.events}
        assert "partition" in kinds or "crash_recover" in kinds
        assert any(k.startswith("link_") for k in kinds)
        crash = random_plan(11, "crash", **kwargs)
        assert crash.plan_hash() == self.CRASH_S11
        assert [e.kind for e in crash.events] == ["crash_burst"]
        # Below three processes the mix draws nothing.
        assert random_plan(11, "crash", process_count=2).is_empty()

    @pytest.mark.parametrize(
        "weights",
        [
            {},
            {"quantum": 1.0},
            {"links": -1.0},
            {"links": float("nan")},
            {"links": float("inf")},
            {"links": "heavy"},
            {"links": True},
            {"links": 0.0, "detectors": 0.0},
        ],
    )
    def test_malformed_weights_fail_loudly(self, weights):
        """No shape of ``weights`` is accepted any more: the second way
        to draw a plan stays deleted."""
        with pytest.raises(TypeError):
            random_plan(0, "full", process_count=5, weights=weights)
