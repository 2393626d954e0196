"""The async driver schedules only wakes that can land.

``AsyncDriver._on_wake`` pushes no timer for a wake that would find its
reader's flag set, and ``EventLoop.run`` pops a turn's due timers straight
off the heap.  The claim is that neither changes a run.  The reference is
the pair of bodies they replaced, kept in ``tests/runtime/_oracle.py``:
one timer per wake (:func:`~tests.runtime._oracle.one_timer_per_wake`) and
a turn that pops its due timers into a batch first
(:func:`~tests.runtime._oracle.batched_run`).  Whole rows, delivery
streams, ``transport`` stats, the number of latency draws and the
schedule (every task resumption and flag-setting landing, at its instant,
and each ``in_flight`` the supervisor reads) must agree on the 16
``async:*`` golden cells and on Figure 1 under a ``links``,
``full``, ``recovery`` and churn plan with every delay-model kind, and
with a ``fixed`` latency whose sums round.

The unit cases below pin each bound of the rule: a wake keeps its timer
while the reader runs or parks, when it lands at or after the reader's
``resume_at`` or the supervisor's next look, and when it lands inside
the current turn.
"""

from __future__ import annotations

import math

import pytest

from repro.core.engine import MulticastSystem
from repro.faults.nemesis import random_plan
from repro.faults.plan import FaultEvent, plan_of
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import FailurePattern
from repro.runtime import async_driver
from repro.runtime.async_driver import (
    CLOCK_RESOLUTION,
    AsyncDriver,
    AsyncTransport,
    EventLoop,
)
from repro.runtime.delay import DelayModel
from repro.workloads.runner import random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from tests.runtime._oracle import batched_run, one_timer_per_wake_everywhere
from tests.runtime._scenarios import async_scenarios, record_fingerprint

DELAY_MODELS = {
    # Every latency equal: deadlines tie exactly.
    "fixed": ("fixed", 0.5),
    # Not a dyadic fraction: sums of it round, so deadlines reached by
    # different paths tie only nearly.
    "fixed_rounding": ("fixed", 0.347),
    "uniform": ("uniform", 0.1, 0.9),
    "exponential": ("exponential", 1.0, 8.0),
    # Latency varies by pair.
    "slow_pairs": ("slow_pairs", 4.0, ((1, 2), (2, 1)), 0.1, 0.9),
}

#: A churn window over two processes, with a link delay that closes
#: earlier, so the two quiet instants differ.
CHURN_PLAN = plan_of(
    FaultEvent(kind="churn", start=2, until=9, targets=(1, 3)),
    FaultEvent(kind="link_delay", start=1, until=5, amount=2),
)


def _plan_cell(mix, delay):
    topology = paper_figure1_topology()
    captured = TopologySpec.capture(topology)
    plan = CHURN_PLAN if mix == "churn" else random_plan(
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
        delay_model=delay,
        faults=plan,
    )
    return lambda: run_scenario(spec)


CELLS = dict(async_scenarios())
CELLS.update(
    {
        f"figure1:{mix}:{name}": _plan_cell(mix, delay)
        for mix in ("links", "full", "recovery", "churn")
        for name, delay in DELAY_MODELS.items()
    }
)


class _Counted(DelayModel):
    """A delay model that counts its draws into ``drawn``."""

    def __init__(self, inner, drawn):
        self._inner, self._drawn = inner, drawn

    def latency(self, src, dst, rng):
        self._drawn[0] += 1
        return self._inner.latency(src, dst, rng)

    def spec(self):
        return self._inner.spec()


#: The bodies :func:`observed` wraps, taken before any test patches them.
_BUILD = async_driver.build_delay_model
_STEP, _LAND = AsyncTransport.step, AsyncTransport._land


def observed(run, monkeypatch):
    """Row, delivery stream, transport stats and latency draws of one
    run of ``run``, and its schedule: every task resumption and every
    landing that sets a flag, with the loop instant, and ``in_flight``
    as the supervisor resumes to read it."""
    drawn, schedule = [0], []
    step, land = _STEP, _LAND

    def counted(spec):
        return _Counted(_BUILD(spec), drawn)

    def stepping(transport, task):
        frame, name = task.gi_frame, task.__name__
        key = frame.f_locals.get("key") if frame is not None else None
        flying = transport.in_flight if name == "_supervise" else None
        schedule.append((transport._loop.now, name, key, flying))
        step(transport, task)

    def landing(transport, key):
        schedule.append((transport._loop.now, "land", key, None))
        land(transport, key)

    monkeypatch.setattr(async_driver, "build_delay_model", counted)
    monkeypatch.setattr(AsyncTransport, "step", stepping)
    monkeypatch.setattr(AsyncTransport, "_land", landing)
    result = run()
    assert result.delivered_everywhere()
    return (
        result.to_row(),
        record_fingerprint(result.record),
        result.transport_stats,
        drawn[0],
        schedule,
    )


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_runs_agree_with_one_timer_per_wake(cell, monkeypatch):
    ours = observed(CELLS[cell], monkeypatch)
    assert ours[3] > 0
    one_timer_per_wake_everywhere(monkeypatch)
    assert observed(CELLS[cell], monkeypatch) == ours


def test_the_rule_elides_wakes_on_a_golden_cell(monkeypatch):
    """The rule is not vacuous: on the Figure 1 ``uniform`` golden cell
    some timed wakes get a timer and some get none."""
    counts = {"pushed": 0, "elided": 0}
    on_wake = AsyncDriver._on_wake

    def counting(driver, woken):
        before = driver._transport.in_flight
        on_wake(driver, woken)
        if driver._current is not None:
            pushed = driver._transport.in_flight - before
            counts["pushed"] += pushed
            counts["elided"] += sum(dst != driver._current for dst in woken) - pushed

    monkeypatch.setattr(AsyncDriver, "_on_wake", counting)
    CELLS["async:figure1:uniform:none"]()
    assert counts["pushed"] > 0 and counts["elided"] > 0, counts


# -- The rule's bounds, one wake at a time -----------------------------------


class _Wake:
    """A driver stopped mid-turn at ``now``, with ``p1`` firing and
    ``p2`` a reader: :meth:`send` routes one wake from ``p1`` to ``p2``
    and reports whether it got a timer."""

    def __init__(self, latency=0.5, now=3.0):
        topology = paper_figure1_topology()
        system = MulticastSystem(topology, FailurePattern(topology.processes, {}))
        self.driver = driver = AsyncDriver(system, delay_model=("fixed", latency))
        keys = driver._sched.sorted_keys
        self.src, self.dst = keys[0], keys[1]
        driver._loop = loop = EventLoop()
        loop.now = now
        driver._transport = self.transport = AsyncTransport(loop, keys)
        driver._resume_at = dict.fromkeys(keys, 0.0)
        driver._current = self.src
        # By default the reader sleeps and the supervisor looks well
        # after the wake lands, and the reader's flag is set.
        driver._resume_at[self.dst] = now + 2.0
        driver._next_tick = now + 1.0
        self.transport.woken[self.dst] = True

    def send(self):
        timers, in_flight = len(self.driver._loop._timers), self.transport.in_flight
        self.driver._on_wake([self.dst])
        pushed = len(self.driver._loop._timers) - timers
        assert self.transport.in_flight - in_flight == pushed
        return pushed == 1


def test_a_wake_that_finds_the_flag_set_before_everything_gets_no_timer():
    assert not _Wake().send()


def test_a_wake_to_a_running_reader_gets_a_timer():
    wake = _Wake()
    # Its last sleep is over: it is running, or queued to run.
    wake.driver._resume_at[wake.dst] = wake.driver._loop.now
    assert wake.send()


def test_a_wake_to_a_parked_reader_gets_a_timer():
    wake = _Wake()
    wake.transport.woken[wake.dst] = False
    wake.transport._parked[wake.dst] = iter(())
    assert wake.send()


def test_a_wake_landing_at_resume_at_gets_a_timer():
    wake = _Wake(latency=0.5)
    # It would land as the reader's sleep timer fires, and after it.
    wake.driver._resume_at[wake.dst] = wake.driver._loop.now + 0.5
    assert wake.send()
    wake.driver._resume_at[wake.dst] = wake.driver._loop.now + 0.25
    assert wake.send()


def test_a_wake_landing_at_the_supervisor_look_gets_a_timer():
    wake = _Wake(latency=0.5)
    wake.driver._next_tick = wake.driver._loop.now + 0.5
    assert wake.send()
    wake.driver._next_tick = wake.driver._loop.now + 0.25
    assert wake.send()


@pytest.mark.parametrize("latency", [0.0, CLOCK_RESOLUTION / 2])
def test_a_wake_landing_inside_the_current_turn_gets_a_timer(latency):
    assert _Wake(latency=latency).send()


def test_a_wake_just_past_the_current_turn_gets_none():
    assert not _Wake(latency=CLOCK_RESOLUTION * 4).send()


def test_a_wake_to_a_crash_stopped_reader():
    """A retired task never clears its flag: once set, a wake gets no
    timer before the supervisor's look; while clear, the first one does
    (it sets the flag)."""
    wake = _Wake()
    wake.driver._resume_at[wake.dst] = math.inf
    assert not wake.send()
    wake.driver._next_tick = wake.driver._loop.now + 0.5
    assert wake.send()
    wake.driver._next_tick = wake.driver._loop.now + 1.0
    wake.transport.woken[wake.dst] = False
    assert wake.send()


def test_a_retired_actor_records_that_it_sleeps_forever():
    topology = paper_figure1_topology()
    p1 = min(topology.processes)
    system = MulticastSystem(topology, FailurePattern(topology.processes, {p1: 3}))
    driver = AsyncDriver(system, seed=1)
    driver.run(max_rounds=40)
    resume_at = driver._resume_at
    assert resume_at[p1] == math.inf
    assert all(when < math.inf for key, when in resume_at.items() if key != p1)


# -- The turn rule, without the batch ----------------------------------------


@pytest.mark.parametrize("run", [EventLoop.run, batched_run], ids=["heap", "batch"])
def test_a_zero_latency_timer_pushed_mid_turn_fires_next_turn(run):
    """A callback of a turn pushes a timer due at once.  It sorts before
    a timer still due in this turn, yet fires only after the calls this
    turn queued — as when the due timers were popped into a batch first."""
    loop = EventLoop()
    seen = []

    def first(_):
        loop.call_at(loop.now, seen.append, "pushed")
        loop.call_soon(seen.append, "queued")

    loop.call_at(1.0, first, None)
    loop.call_at(1.0 + CLOCK_RESOLUTION / 2, seen.append, "sibling")
    loop.call_at(2.0, lambda _: loop.stop(), None)
    run(loop)
    assert seen == ["sibling", "queued", "pushed"]
    assert loop.now == 2.0
