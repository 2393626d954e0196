"""The async driver's own event loop: its turn rule, and the asyncio oracle.

``EventLoop`` replaced an asyncio loop under a patched selector.  Two
things are pinned here.  The turn rule, case by case: equal deadlines
fire in scheduling order (asyncio fires ``x, B, A`` on the first
schedule below — ``heapq`` layout, not a rule), a cancelled timer is as
good as absent, near-equal deadlines share a turn, and the wall clock
really waits.  And the claim that nothing else changed: whole scenario
rows and delivery streams agree with the same driver run on
``tests.runtime._oracle.asyncio_loop`` — a real asyncio loop whose only
edit is that FIFO tie rule.
"""

from __future__ import annotations

import time

import pytest

from repro.faults.nemesis import random_plan
from repro.groups import paper_figure1_topology
from repro.runtime.async_driver import EventLoop
from repro.workloads import ScenarioSpec, random_sends, run_scenario
from repro.workloads.spec import TopologySpec
from repro.workloads.topologies import (
    disjoint_topology,
    hub_topology,
    ring_topology,
)
from tests.runtime._oracle import asyncio_everywhere, asyncio_loop
from tests.runtime._scenarios import record_fingerprint


def fired_on(loop, schedule, stop_at):
    """Schedule ``(name, when)`` pairs in order; return the firing order."""
    fired = []
    for name, when in schedule:
        loop.call_at(when, fired.append, name)
    loop.call_at(stop_at, lambda _: loop.stop(), None)
    loop.run()
    return fired


class TestTurnRule:
    @pytest.mark.parametrize("make_loop", [EventLoop, asyncio_loop])
    def test_equal_deadlines_fire_in_scheduling_order(self, make_loop):
        schedule = [("x", 0.5), ("A", 1.0), ("B", 1.0)]
        assert fired_on(make_loop(), schedule, 2.0) == ["x", "A", "B"]

    def test_cancelled_head_neither_fires_nor_stops_the_clock(self):
        loop = EventLoop()
        seen = []
        head = loop.call_at(1.0, seen.append, "cancelled")
        loop.call_at(3.0, lambda _: seen.append(loop.time()), None)
        head.cancel()
        loop.run()
        # One advance, 0 -> 3: the clock never rested at the dead deadline.
        assert seen == [3.0]

    def test_timers_within_the_resolution_share_a_turn(self):
        loop = EventLoop()
        seen = []

        def queue_one(_):
            loop.call_soon(seen.append, "next turn")

        loop.call_at(1.0, queue_one, None)
        loop.call_at(1.0 + 5e-10, seen.append, "same turn")
        loop.run()
        # Popped with the first timer, so it ran before what that queued.
        assert seen == ["same turn", "next turn"]

    def test_calls_queued_during_a_turn_run_in_the_next(self):
        loop = EventLoop()
        seen = []
        loop.call_soon(lambda _: loop.call_soon(seen.append, "second"), None)
        loop.call_soon(seen.append, "first")
        loop.run()
        assert seen == ["first", "second"]

    def test_a_raising_callback_leaves_run_at_once(self):
        loop = EventLoop()
        seen = []

        def boom(_):
            raise RuntimeError("boom")

        loop.call_at(1.0, boom, None)
        loop.call_at(2.0, seen.append, "later")
        with pytest.raises(RuntimeError):
            loop.run()
        assert loop.time() == 1.0 and seen == []

    def test_wall_clock_really_sleeps(self):
        loop = EventLoop("wall")
        begin = loop.time()
        assert fired_on(loop, [("late", begin + 0.005)], begin + 0.01) == ["late"]
        assert 0.01 <= time.monotonic() - begin < 1.0


TOPOLOGIES = {
    "figure1": paper_figure1_topology,
    "ring5": lambda: ring_topology(5),
    "hub4": lambda: hub_topology(4),
    "disjoint3x3": lambda: disjoint_topology(3, 3),
}

DELAY_MODELS = {
    "uniform": ("uniform", 0.1, 0.9),
    "exponential": ("exponential", 1.0, 8.0),
    # Every pace and latency equal: nearly all deadlines tie.
    "fixed": ("fixed", 0.5),
}


def observed(spec):
    result = run_scenario(spec)
    return result.to_row(), record_fingerprint(result.record)


@pytest.mark.parametrize("delay", sorted(DELAY_MODELS))
@pytest.mark.parametrize("mix", [None, "links", "full", "recovery"])
@pytest.mark.parametrize("label", sorted(TOPOLOGIES))
def test_rows_agree_with_the_asyncio_oracle(label, mix, delay, monkeypatch):
    topology = TOPOLOGIES[label]()
    captured = TopologySpec.capture(topology)
    plan = mix and random_plan(
        1,
        mix,
        process_count=captured.process_count,
        groups=tuple(name for name, _ in captured.groups),
        horizon=12,
    )
    spec = ScenarioSpec(
        topology=captured,
        sends=tuple(random_sends(topology, 12, seed=3)),
        seed=3,
        max_rounds=300,
        backend="async",
        delay_model=DELAY_MODELS[delay],
        faults=plan,
        name=f"{label}/{mix}/{delay}",
    )
    ours = observed(spec)
    asyncio_everywhere(monkeypatch)
    assert observed(spec) == ours
