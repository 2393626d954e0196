"""Tests for ddmin counterexample shrinking and repro files."""

import pytest

from repro.faults.__main__ import shrink_demo_spec
from repro.faults.injector import AdmissibilityError, FaultInjector
from repro.faults.nemesis import random_plan
from repro.faults.plan import FaultEvent, FaultPlan, plan_of
from repro.faults.shrink import (
    HARNESSES,
    PlanShrinker,
    harness_violates,
    load_repro,
    replay_repro,
    repro_payload,
    run_harness,
    shrink_plan,
    write_repro,
)
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology
from tests.faults._oracle import broadcast_outcome

TOPOLOGY = TopologySpec.capture(disjoint_topology(2, group_size=3))


def spec_with(plan=None, sends=(Send(1, "g1", 0),), **kwargs):
    return ScenarioSpec(
        topology=TOPOLOGY, sends=tuple(sends), faults=plan, **kwargs
    )


def noise_events(n):
    """n distinct, individually inert events for synthetic predicates."""
    return [
        FaultEvent(kind="gamma_delay", amount=i + 1) for i in range(n)
    ]


CULPRIT_A = FaultEvent(kind="link_delay", start=1, until=4, amount=2)
CULPRIT_B = FaultEvent(kind="sigma_noise", start=2, until=5)


class TestDdmin:
    def test_shrinks_to_the_exact_culprit_pair(self):
        # Synthetic failure: the run "violates" iff both culprits are in
        # the plan.  ddmin must isolate exactly that pair.
        plan = FaultPlan(tuple(noise_events(6)) + (CULPRIT_A, CULPRIT_B))

        def violates(spec):
            events = set(spec.faults or FaultPlan())
            return CULPRIT_A in events and CULPRIT_B in events

        shrinker = PlanShrinker(spec_with(), violates)
        minimal = shrinker.shrink(plan)
        assert minimal == plan_of(CULPRIT_A, CULPRIT_B)
        assert len(minimal) <= 3

    def test_single_culprit(self):
        plan = FaultPlan(tuple(noise_events(7)) + (CULPRIT_A,))

        def violates(spec):
            return CULPRIT_A in set(spec.faults or FaultPlan())

        minimal = PlanShrinker(spec_with(), violates).shrink(plan)
        assert minimal == plan_of(CULPRIT_A)

    def test_intrinsic_failure_shrinks_to_the_empty_plan(self):
        shrinker = PlanShrinker(spec_with(), lambda spec: True)
        minimal = shrinker.shrink(FaultPlan(tuple(noise_events(5))))
        assert minimal.is_empty()
        # One evaluation for the starting plan, one for the empty plan.
        assert shrinker.evaluations == 2

    def test_passing_plan_is_rejected(self):
        with pytest.raises(ValueError):
            PlanShrinker(spec_with(), lambda spec: False).shrink(
                FaultPlan(tuple(noise_events(3)))
            )

    def test_evaluations_are_memoized(self):
        seen = []

        def violates(spec):
            plan = spec.faults or FaultPlan()
            seen.append(plan.plan_hash())
            return CULPRIT_A in set(plan)

        shrinker = PlanShrinker(spec_with(), violates)
        shrinker.shrink(FaultPlan((CULPRIT_A,) + tuple(noise_events(4))))
        assert len(seen) == len(set(seen))
        assert shrinker.evaluations == len(seen)


class TestBroadcastBaseline:
    """The §2.3 non-genuine baseline: the canonical shrinker fixture."""

    def test_violation_is_intrinsic_so_minimal_plan_is_empty(self):
        plan = random_plan(7, "full", process_count=6, groups=("g1", "g2"))
        spec = spec_with(plan)
        minimal, shrinker = shrink_plan(spec, harness="broadcast")
        assert minimal.is_empty()
        assert len(minimal) <= 3
        assert shrinker.evaluations == 2

    def test_repro_file_round_trips_and_replays(self, tmp_path):
        plan = random_plan(7, "full", process_count=6, groups=("g1", "g2"))
        spec = spec_with(plan)
        minimal, _ = shrink_plan(spec, harness="broadcast")
        payload = repro_payload(spec, minimal, plan, harness="broadcast")
        assert payload["kind"] == "fault-repro"
        assert payload["original_events"] == len(plan)
        assert payload["minimal_events"] == 0
        assert payload["verdicts"]["minimality"] > 0

        path = tmp_path / "repro.json"
        write_repro(str(path), payload)
        loaded = load_repro(str(path))
        assert loaded == payload
        replay = replay_repro(loaded)
        assert replay["verdicts"] == payload["verdicts"]
        assert replay["truncated"] == payload["truncated"]

    def test_genuine_scenario_passes_the_broadcast_spec(self):
        # Sanity: the same spec under the real protocol has no violation,
        # so the shrinker correctly refuses to "shrink" it.
        spec = spec_with(None)
        outcome = run_harness("scenario", spec)
        assert not outcome["truncated"]
        assert all(v == 0 for v in outcome["verdicts"].values())
        assert not harness_violates("scenario")(spec)

    def test_unknown_harness_is_rejected(self):
        with pytest.raises(ValueError):
            run_harness("chaos", spec_with())


class TestBroadcastOnThePipeline:
    """The broadcast harness is ``run_deployment`` with another builder:
    it gets the script interleaving, the skipped-send accounting and the
    injector audit of the three backends (all red at the parent, whose
    hand-rolled copy had none of them)."""

    def test_a_send_is_issued_at_its_round(self):
        result = HARNESSES["broadcast"](
            spec_with(sends=(Send(1, "g1", 0), Send(1, "g1", at_round=3)))
        )
        assert [e.time for e in result.record.multicasts] == [0, 3]
        assert not result.truncated

    def test_a_sender_crashed_at_its_round_is_skipped(self):
        late = Send(1, "g1", at_round=3)
        result = HARNESSES["broadcast"](
            spec_with(sends=(Send(2, "g1", 0), late), crashes=((1, 2),))
        )
        assert result.skipped_sends == [late]
        assert len(result.messages) == 1

    def test_an_inadmissible_plan_is_refused_with_the_triage_line(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            FaultInjector, "audit", lambda self, *a, **kw: ["left the envelope"]
        )
        spec = spec_with(plan_of(CULPRIT_A))
        with pytest.raises(AdmissibilityError, match="left the envelope") as err:
            run_harness("broadcast", spec)
        assert f"[triage spec_hash={spec.spec_hash()}" in str(err.value)


def _at_round_zero_specs():
    """Every spec the suite above and ``--shrink-demo`` hand the
    broadcast harness, plus each one-event plan ddmin can probe, by a
    label that does not move with the spec's content address."""
    plan = random_plan(7, "full", process_count=6, groups=("g1", "g2"))
    specs = [
        pytest.param(spec_with(None), id="fault-free"),
        pytest.param(spec_with(plan), id="full-plan"),
        pytest.param(shrink_demo_spec(), id="shrink-demo"),
    ]
    specs += [
        pytest.param(spec_with(plan_of(event)), id=f"event-{i}")
        for i, event in enumerate(plan)
    ]
    return specs


@pytest.mark.parametrize("spec", _at_round_zero_specs())
def test_pipeline_agrees_with_the_retired_broadcast_body(spec):
    assert all(send.at_round == 0 for send in spec.sends)
    assert run_harness("broadcast", spec) == broadcast_outcome(spec)


class TestShrinkCache:
    """The shrinker's cost accounting (the class name is the test's id;
    probes are cached as ``CampaignCache`` cells, pinned in
    ``tests/explore/test_driver.py``)."""

    def _plan(self):
        return random_plan(7, "full", process_count=6, groups=("g1", "g2"))

    def test_stats_ride_the_repro_payload(self):
        spec = spec_with(self._plan())
        minimal, shrinker = shrink_plan(spec, harness="broadcast")
        payload = repro_payload(
            spec, minimal, spec.faults, harness="broadcast",
            shrinker=shrinker,
        )
        stats = payload["shrink"]
        assert stats["probes"] >= stats["evaluations"]
        assert stats["reduction"] == 1.0  # intrinsic: shrinks to empty
