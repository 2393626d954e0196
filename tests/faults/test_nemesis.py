"""Tests for the random nemesis: plan generation and the smoke matrix.

``test_matrix_passes_every_checker`` is the acceptance gate of the
fault layer: Algorithm 1 on the Figure 1 topology (engine backend) and
the Appendix-A kernel on a disjoint grid, under every injector mix at
smoke intensity, across 20 seeds — every §2.2 checker must hold and
every run must stay inside the admissibility envelope (the auditor
raises otherwise, which surfaces here as a scenario failure).
"""

import pytest

from repro.faults.__main__ import matrix_specs
from repro.faults.nemesis import MIXES, random_plan
from repro.faults.plan import DETECTOR_KINDS, LINK_KINDS
from repro.model.errors import ModelError
from repro.workloads.runner import run_scenario


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
            assert {e.kind for e in links} <= set(LINK_KINDS)
            detectors = random_plan(seed, "detectors", groups=("g1",))
            assert {e.kind for e in detectors} <= set(DETECTOR_KINDS)

    def test_every_plan_has_a_finite_horizon(self):
        for mix in MIXES:
            for seed in range(20):
                plan = random_plan(
                    seed, mix, process_count=5, groups=("g1",)
                )
                assert plan.horizon() < 100


class TestSmokeMatrix:
    def test_matrix_covers_backends_mixes_and_seeds(self):
        specs = matrix_specs(seeds=2)
        assert len(specs) == 2 * len(MIXES) * 2
        assert {s.backend for s in specs} == {"engine", "kernel"}
        assert all(s.faults is not None for s in specs)

    def test_matrix_passes_every_checker(self):
        for spec in matrix_specs(seeds=20):
            result = run_scenario(spec)
            result.assert_ok()


class TestWeightedMixes:
    """The named mixes are the one way to draw a plan (the ``weights=``
    axis this class was named for is gone)."""

    #: Frozen plan hashes: the named-mix RNG streams are pinned so
    #: refactors cannot silently re-seed them — corpus entries, cached
    #: rows and repro files all address plans by these hashes.
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
