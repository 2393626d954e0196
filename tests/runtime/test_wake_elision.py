"""An async fire wakes each reader once.

``AsyncDriver._on_wake`` spends one draw of the driver's RNG per
(operation, reader), as the retired one-timer-per-wake body did
(:func:`~tests.runtime._oracle.one_timer_per_wake`), but records only
each reader's first landing; when the fire returns, ``_actor`` pushes
one ``land`` timer per reader it woke, in first-wake order.  On a quiet
fire (no fault plan can perturb its wakes) the driver keeps each
reader's least uniform draw and maps it through the model's quantile
once; on a faulted fire each wake draws its latency and takes the plan's
verdict, and a dropped wake keeps its own retry or ack timer.  So the
wakes of one fire after a reader's first are elided: the reader's next
step reads every write of the fire, whichever wake brought it there
(DESIGN.md §14).

The differential below runs the retired body, which draws a latency per
wake through ``DelayModel.latency`` on every fire, and folds, per fire,
the timers it pushed for one reader into the earliest, then lands them
as ``_actor`` does; it also runs the turns batched
(:func:`~tests.runtime._oracle.batched_run`).  Whole rows, delivery
streams, ``transport`` stats, the number of draws the driver's RNG made
and the schedule (every task resumption and flag-setting landing, at its
instant, and each ``in_flight`` the supervisor reads) must agree with
the shipped driver on the 16 ``async:*`` golden cells and on Figure 1
under a ``links``, ``full``, ``recovery`` and churn plan with every
delay-model kind, and with a ``fixed`` latency whose sums round.

The unit cases below fire one actor once, with scripted draws under a
``uniform`` model on ``[0, 1)`` (whose quantile is the draw itself) and
scripted fault verdicts, and read the timers the fire pushed.
"""

from __future__ import annotations

from heapq import heapify

import pytest

from repro.core.engine import MulticastSystem
from repro.faults.injector import BENIGN_SEND, SendVerdict
from repro.faults.nemesis import random_plan
from repro.faults.plan import FaultEvent, FaultPlan
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import FailurePattern
from repro.runtime import async_driver
from repro.runtime.async_driver import (
    CLOCK_RESOLUTION,
    RETRY_BUDGET,
    AsyncDriver,
    AsyncTransport,
    EventLoop,
)
from repro.runtime.delay import FixedDelay, UniformDelay
from repro.workloads.runner import random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from tests.runtime._oracle import batched_run, one_timer_per_wake
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
CHURN_PLAN = FaultPlan((
    FaultEvent(kind="churn", start=2, until=9, targets=(1, 3)),
    FaultEvent(kind="link_delay", start=1, until=5, amount=2),
))


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


class _CountedRandom:
    """The driver's RNG, counting its ``random()`` calls into ``drawn``."""

    def __init__(self, inner, drawn):
        self._inner, self._drawn = inner, drawn

    def random(self):
        self._drawn[0] += 1
        return self._inner.random()


#: The bodies :func:`observed` wraps, taken before any test patches them.
_INIT = AsyncDriver.__init__
_STEP, _LAND = AsyncTransport.step, AsyncTransport._land


def observed(run, monkeypatch):
    """Row, delivery stream, transport stats and the RNG draws of one
    run of ``run``, and its schedule: every task resumption and every
    landing that sets a flag, with the loop instant, and ``in_flight``
    as the supervisor resumes to read it."""
    drawn, schedule = [0], []
    step, land = _STEP, _LAND

    def counted(driver, *args, **kwargs):
        _INIT(driver, *args, **kwargs)
        driver.rng = _CountedRandom(driver.rng, drawn)

    def stepping(transport, task):
        frame, name = task.gi_frame, task.__name__
        key = frame.f_locals.get("key") if frame is not None else None
        flying = transport.in_flight if name == "_supervise" else None
        schedule.append((transport._loop.now, name, key, flying))
        step(transport, task)

    def landing(transport, key):
        schedule.append((transport._loop.now, "land", key, None))
        land(transport, key)

    monkeypatch.setattr(AsyncDriver, "__init__", counted)
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


def first_landings_of_one_timer_per_wake(driver, woken):
    """The retired body, then its ``land`` timers folded into
    ``driver._landings``: each reader keeps the earliest, in first-wake
    order, for ``_actor`` to push when the fire returns.  The dropped
    wakes' timers stay where the body pushed them.  Quiet fires included:
    the body leaves ``driver._least_draw`` empty, so ``_actor`` pushes
    these landings as the retired body computed them."""
    if driver._current is None:
        one_timer_per_wake(driver, woken)
        return
    loop, land, landings = driver._loop, driver._transport.land, driver._landings
    mark, timers = loop._seq, loop._timers
    one_timer_per_wake(driver, woken)
    pushed = sorted(
        (timer for timer in timers if timer[1] > mark and timer[2] is land),
        key=lambda timer: timer[1],
    )
    timers[:] = [timer for timer in timers if timer[1] <= mark or timer[2] is not land]
    heapify(timers)
    for when, _seq, _land, dst in pushed:
        driver._transport.in_flight -= 1
        if dst not in landings or when < landings[dst]:
            landings[dst] = when


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_runs_agree_with_one_timer_per_wake(cell, monkeypatch):
    """One timer per wake, each fire's timers for a reader folded into
    the earliest, on batched turns: the shipped run, to the schedule."""
    ours = observed(CELLS[cell], monkeypatch)
    # The counter is wired: only a ``fixed`` model may spend no draw.
    assert ours[3] > 0 or "fixed" in cell
    monkeypatch.setattr(AsyncDriver, "_on_wake", first_landings_of_one_timer_per_wake)
    monkeypatch.setattr(EventLoop, "run", batched_run)
    assert observed(CELLS[cell], monkeypatch) == ours


def test_the_rule_elides_wakes_on_a_golden_cell(monkeypatch):
    """The rule is not vacuous: on the Figure 1 ``uniform`` golden cell
    fires push ``land`` timers, and fewer than the timed wakes they sent.
    A timer is counted once by its ``seq``: a turn pushes back the due
    timers pushed during it."""
    wakes, pushed = [0], set()
    on_wake, push = AsyncDriver._on_wake, async_driver.heappush

    def counting(driver, woken):
        if driver._current is not None:
            wakes[0] += sum(dst != driver._current for dst in woken)
        on_wake(driver, woken)

    def pushing(timers, timer):
        if getattr(timer[2], "__func__", None) is _LAND:
            pushed.add(timer[1])
        push(timers, timer)

    monkeypatch.setattr(AsyncDriver, "_on_wake", counting)
    monkeypatch.setattr(async_driver, "heappush", pushing)
    CELLS["async:figure1:uniform:none"]()
    assert 0 < len(pushed) < wakes[0], (len(pushed), wakes[0])


# -- One fire, one reader -----------------------------------------------------


class _Scripted:
    """The driver's RNG with scripted draws: ``random()`` returns the
    listed values in order, then ``pace`` (the pacing sleep's draw)."""

    def __init__(self, draws, pace=0.5):
        self.draws, self.pace, self.calls = list(draws), pace, 0

    def random(self):
        self.calls += 1
        return self.draws.pop(0) if self.draws else self.pace


class _Dropping:
    """A fault plan that drops the wakes whose index is in ``drops`` and
    whose links never clear before the backstop at ``retransmit_at``."""

    churn_quiet_from = 0
    links_quiet_from = 10**9

    def __init__(self, drops, retransmit_at=20):
        self.drops, self.sent, self.retransmit_at = set(drops), 0, retransmit_at

    def on_send(self, src, dst, t):
        self.sent += 1
        if self.sent - 1 in self.drops:
            return SendVerdict(dropped=True, retransmit_at=self.retransmit_at)
        return BENIGN_SEND

    def link_clear(self, src, dst, t):
        return False


class _Fire:
    """A driver at loop time ``now`` in which this object is the actor
    ``p1``: its one fire wakes the reader ``p2`` once per scripted
    latency (with ``drops``, the fault plan drops those wakes, by
    index).  The model is ``uniform`` on ``[0, 1)``, so a draw is its
    latency; a dropped wake's retry ladder spends ``RETRY_BUDGET`` more
    draws, scripted as zeros."""

    def __init__(self, latencies, now=3.0, drops=None, crashes=None, model=None):
        topology = paper_figure1_topology()
        system = MulticastSystem(
            topology, FailurePattern(topology.processes, crashes or {})
        )
        model = UniformDelay(0.0, 1.0) if model is None else model
        self.driver = driver = AsyncDriver(system, delay_model=model)
        script = []
        for index, latency in enumerate(latencies):
            script.append(latency)
            if drops is not None and index in drops:
                script.extend([0.0] * RETRY_BUDGET)
        driver.rng = self.rng = _Scripted(script)
        if drops is not None:
            driver.injector = _Dropping(drops)
            driver._links_quiet_from = driver.injector.links_quiet_from
        keys = driver._sched.sorted_keys
        self.src, self.dst, self.wakes = keys[0], keys[1], len(latencies)
        driver._loop = loop = EventLoop()
        loop.now = now
        driver._transport = self.transport = AsyncTransport(loop, keys)
        driver._sched.actors[self.src] = self
        driver._tasks[self.src] = self.task = driver._actor(self.src)

    def fire(self, t, budget, parked):
        """``p1``'s fire, as the driver calls it."""
        for _ in range(self.wakes):
            self.driver._on_wake((self.dst,))
        self.wakes = 0
        self.drawn_in_fire = self.rng.calls
        return 1

    def landings(self):
        """Step ``p1``'s task through its fire: ``(when, dst)`` of every
        ``land`` timer it pushed, and ``in_flight``."""
        next(self.task)
        land = self.transport.land
        timers = sorted(self.driver._loop._timers)
        return [(when, dst) for when, _, fn, dst in timers if fn is land], (
            self.transport.in_flight
        )


def test_a_fire_that_wakes_a_reader_k_times_pushes_one_timer_at_the_least():
    fire = _Fire([0.75, 0.25, 0.5])
    landings, in_flight = fire.landings()
    assert landings == [(3.25, fire.dst)]
    assert in_flight == 1


def test_the_fire_still_draws_once_per_wake():
    """A quiet fire spends one RNG draw per wake, in order, then the
    pacing sleep spends one: the stream a draw-per-wake body spends."""
    fire = _Fire([0.75, 0.25, 0.5])
    fire.landings()
    assert fire.drawn_in_fire == 3
    assert fire.rng.draws == [] and fire.rng.calls == 4


def test_a_fixed_model_spends_no_draw():
    """``fixed`` has ``draws = False``: its wakes and its pacing sleep
    leave the RNG alone, and every wake lands at the constant."""
    fire = _Fire([0.75, 0.25], model=FixedDelay(0.5))
    assert fire.landings() == ([(3.5, fire.dst)], 1)
    assert fire.rng.calls == 0


def test_a_dropped_wake_keeps_its_own_timer_and_is_not_the_least():
    fire = _Fire([0.125, 0.5, 0.75], drops={0})
    landings, in_flight = fire.landings()
    assert landings == [(3.5, fire.dst)]
    acks = [
        (fn.__name__, dst)
        for _, _, fn, dst in fire.driver._loop._timers
        if fn not in (fire.transport.land, fire.transport.step)
    ]
    assert acks == [("_ack", fire.dst)]
    assert in_flight == 2
    assert fire.drawn_in_fire == 3 + RETRY_BUDGET
    assert fire.rng.draws == []


def test_a_wake_to_a_running_reader_gets_a_timer():
    """A reader whose flag is set and that is not parked gets the fire's
    one timer too: no wake is dropped for what the reader is doing."""
    fire = _Fire([0.5, 0.25])
    fire.transport.woken[fire.dst] = True
    assert fire.landings() == ([(3.25, fire.dst)], 1)


def test_a_wake_to_a_parked_reader_gets_a_timer():
    fire = _Fire([0.5, 0.25])
    fire.transport._parked[fire.dst] = iter(())
    assert fire.landings() == ([(3.25, fire.dst)], 1)


def test_a_wake_to_a_crash_stopped_reader():
    """A reader crashed at t = 1 (its task retired, its flag never
    cleared again) still gets the fire's one timer."""
    p2 = sorted(paper_figure1_topology().processes)[1]
    fire = _Fire([0.5], crashes={p2: 1})
    assert fire.dst == p2
    fire.transport.woken[fire.dst] = True
    assert fire.landings() == ([(3.5, fire.dst)], 1)


@pytest.mark.parametrize("latency", [0.0, CLOCK_RESOLUTION / 2])
def test_a_wake_landing_inside_the_current_turn_gets_a_timer(latency):
    """A wake due within the fire's own turn gets its timer and lands on
    the next turn, after every call of the fire's turn, at its deadline."""
    fire = _Fire([0.75, latency])
    loop, seen = fire.driver._loop, []
    land = fire.transport.land

    def landing(key):
        seen.append(("land", loop.now))
        land(key)

    fire.transport.land = landing
    fire.task = fire.driver._tasks[fire.src] = fire.driver._actor(fire.src)
    loop.call_soon(fire.transport.step, fire.task)
    loop.call_soon(lambda _: seen.append(("queued", loop.now)), None)
    loop.call_at(loop.now + 0.25, lambda _: loop.stop(), None)
    loop.run()
    assert seen == [("queued", 3.0), ("land", 3.0 + latency)]
    assert fire.transport.woken[fire.dst] and fire.transport.in_flight == 0


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
