"""Tests for fault plans as value objects."""

import pytest

from repro.faults.plan import (
    DETECTOR_KINDS,
    EVENT_KINDS,
    LINK_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
)

DELAY = FaultEvent(kind="link_delay", start=2, until=6, amount=3)
REORDER = FaultEvent(kind="link_reorder", start=1, until=5, amount=2)
DROP = FaultEvent(kind="link_drop", start=3, until=7, amount=1)
NOISE = FaultEvent(kind="sigma_noise", group="g1", start=2, until=4)
BURST = FaultEvent(kind="crash_burst", start=4, amount=2, targets=(1, 3))


class TestFaultEvent:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind="link_teleport")

    def test_negative_window_is_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind="link_delay", start=-1, until=3)

    def test_inverted_window_is_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind="link_delay", start=5, until=2)

    def test_reorder_needs_a_pick_window(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind="link_reorder", start=0, until=4, amount=1)

    def test_crash_burst_needs_targets(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind="crash_burst", start=2)
        with pytest.raises(FaultPlanError):
            FaultEvent(kind="crash_burst", start=2, targets=(1, 1))

    def test_link_events_take_no_targets(self):
        with pytest.raises(FaultPlanError):
            FaultEvent(kind="link_delay", until=3, targets=(1,))

    def test_active_is_half_open(self):
        assert not DELAY.active(1)
        assert DELAY.active(2)
        assert DELAY.active(5)
        assert not DELAY.active(6)

    def test_matches_link_wildcards(self):
        any_link = FaultEvent(kind="link_delay", until=3, amount=1)
        assert any_link.matches_link(1, 2)
        pinned = FaultEvent(kind="link_delay", src=1, dst=2, until=3, amount=1)
        assert pinned.matches_link(1, 2)
        assert not pinned.matches_link(2, 1)

    def test_ends_by_covers_the_last_effect(self):
        # A datagram sent at until-1 with delay `amount` is receivable at
        # until-1+amount; the event is over one round later.
        assert DELAY.ends_by() >= DELAY.until - 1 + DELAY.amount
        # A drop retransmits at the window close plus transit.
        assert DROP.ends_by() == DROP.until + 1
        # A staggered burst finishes at start + (len-1)*gap.
        assert BURST.ends_by() == 4 + 1 * 2 + 1

    def test_json_round_trip(self):
        for event in (DELAY, REORDER, DROP, NOISE, BURST):
            assert FaultEvent.from_json(event.to_json()) == event


class TestFaultPlan:
    def test_event_order_does_not_matter(self):
        a = FaultPlan((DELAY, NOISE, BURST))
        b = FaultPlan((BURST, DELAY, NOISE))
        assert a == b
        assert hash(a) == hash(b)
        assert a.plan_hash() == b.plan_hash()

    def test_different_plans_hash_differently(self):
        assert FaultPlan((DELAY,)).plan_hash() != FaultPlan((DROP,)).plan_hash()
        assert FaultPlan((DELAY,)).plan_hash() != FaultPlan().plan_hash()

    def test_json_round_trip_preserves_identity(self):
        plan = FaultPlan((DELAY, REORDER, DROP, NOISE, BURST))
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.plan_hash() == plan.plan_hash()

    def test_horizon_is_the_max_over_events(self):
        plan = FaultPlan((DELAY, DROP, BURST))
        assert plan.horizon() == max(
            DELAY.ends_by(), DROP.ends_by(), BURST.ends_by()
        )
        assert FaultPlan().horizon() == 0

    def test_by_kind_slices(self):
        plan = FaultPlan((DELAY, NOISE, BURST, DROP))
        assert plan.by_kind(*LINK_KINDS) == (DELAY, DROP)
        assert plan.by_kind(*DETECTOR_KINDS) == (NOISE,)

    def test_subset_and_without(self):
        # The shrinker derives sub-plans from a plan's events; any order
        # of the same events is the same canonical plan.
        plan = FaultPlan((DELAY, NOISE, BURST))
        events = plan.events
        assert len(FaultPlan(events[:1] + events[2:])) == 2
        assert FaultPlan(tuple(e for e in events if e != NOISE)) == FaultPlan((BURST, DELAY))
        assert plan.is_empty() is False
        assert FaultPlan().is_empty() is True

    def test_every_kind_is_constructible(self):
        for kind in EVENT_KINDS:
            kwargs = {"kind": kind, "start": 1, "until": 4}
            if kind == "link_reorder":
                kwargs["amount"] = 2
            if kind in ("crash_burst", "churn", "partition"):
                kwargs["targets"] = (1,)
            if kind == "crash_recover":
                kwargs["targets"] = (1,)
                kwargs["until"] = 4
            event = FaultEvent(**kwargs)
            assert FaultEvent.from_json(event.to_json()) == event
