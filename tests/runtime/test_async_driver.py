"""Unit coverage for the async driver's parts: delay models, the
loop clock, the transport, and the driver's validation surface
(the loop's turn rule has its own file, ``test_event_loop.py``).

The end-to-end semantics (delivery-set agreement with the round
backends, determinism, fault-plan mapping) live in
``tests/workloads/test_async_backend.py`` and
``tests/workloads/test_async_differential.py``; this file pins the
pieces in isolation so a regression names its layer.
"""

from __future__ import annotations

import os
import random
import sys
import time

import pytest

from repro.model.errors import SimulationError
from repro.runtime.async_driver import (
    AsyncDriver,
    AsyncTransport,
    EventLoop,
    derive_async_seed,
)
from repro.runtime.delay import (
    DEFAULT_DELAY_SPEC,
    ExponentialDelay,
    FixedDelay,
    SlowPairsDelay,
    UniformDelay,
    build_delay_model,
    canonical_delay_spec,
    parse_delay_model,
)
from tests.runtime._scenarios import async_scenarios


class TestDelayModels:
    def test_fixed_is_constant(self):
        model = FixedDelay(0.5)
        rng = random.Random(0)
        assert {model.latency(1, 2, rng) for _ in range(10)} == {0.5}
        assert model.spec() == ("fixed", 0.5)

    def test_uniform_stays_in_range(self):
        model = UniformDelay(0.2, 0.8)
        rng = random.Random(1)
        draws = [model.latency(1, 2, rng) for _ in range(200)]
        assert all(0.2 <= d <= 0.8 for d in draws)
        assert model.spec() == ("uniform", 0.2, 0.8)

    def test_exponential_is_capped(self):
        model = ExponentialDelay(mean=1.0, cap=2.0)
        rng = random.Random(2)
        draws = [model.latency(1, 2, rng) for _ in range(500)]
        assert max(draws) <= 2.0
        # The cap actually binds somewhere in 500 draws of mean 1.
        assert any(d == 2.0 for d in draws)

    def test_slow_pairs_multiplies_only_named_pairs(self):
        model = SlowPairsDelay(4.0, [(1, 2)], lo=0.5, hi=0.5)
        rng = random.Random(3)
        assert model.latency(1, 2, rng) == pytest.approx(2.0)
        assert model.latency(2, 1, rng) == pytest.approx(0.5)
        assert model.latency(3, 4, rng) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            ("fixed", -1),
            ("uniform", 0.9, 0.1),
            ("uniform", -0.1, 0.5),
            ("exponential", 0, 8),
            ("slow_pairs", 0.5, ((1, 2),)),
            ("slow_pairs", 4.0, ()),
            ("warp", 1),
            42,
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises((SimulationError, ValueError, TypeError)):
            build_delay_model(bad)

    def test_none_means_default(self):
        assert build_delay_model(None).spec() == DEFAULT_DELAY_SPEC

    def test_canonicalization_normalizes_lists(self):
        assert canonical_delay_spec(["uniform", "0.1", "0.9"]) == (
            "uniform",
            0.1,
            0.9,
        )
        assert canonical_delay_spec(
            ["slow_pairs", 4, [[2, 1], [1, 2]], 0.1, 0.9]
        ) == ("slow_pairs", 4.0, ((1, 2), (2, 1)), 0.1, 0.9)

    def test_parse_cli_forms(self):
        assert parse_delay_model("fixed:0.5") == ("fixed", 0.5)
        assert parse_delay_model("uniform:0.1:0.9") == ("uniform", 0.1, 0.9)
        assert parse_delay_model("exponential:1.0:8") == (
            "exponential",
            1.0,
            8.0,
        )
        assert parse_delay_model("slow_pairs:4:1-2,2-1") == (
            "slow_pairs",
            4.0,
            ((1, 2), (2, 1)),
            0.1,
            0.9,
        )
        assert parse_delay_model("uniform")[0] == "uniform"
        with pytest.raises(SimulationError):
            parse_delay_model("warp:9")


#: (model, the stdlib draw it must equal bit for bit).  The exponential
#: sets include caps that bind often (mean 1, cap 2) and almost never.
STDLIB_DRAWS = [
    (UniformDelay(0.1, 0.9), lambda rng: rng.uniform(0.1, 0.9)),
    (UniformDelay(0.0, 3.7), lambda rng: rng.uniform(0.0, 3.7)),
    (UniformDelay(0.5, 0.5), lambda rng: rng.uniform(0.5, 0.5)),
    (
        ExponentialDelay(1.0, 8.0),
        lambda rng: min(rng.expovariate(1 / 1.0), 8.0),
    ),
    (
        ExponentialDelay(1.0, 2.0),
        lambda rng: min(rng.expovariate(1 / 1.0), 2.0),
    ),
    (
        ExponentialDelay(0.3, 50.0),
        lambda rng: min(rng.expovariate(1 / 0.3), 50.0),
    ),
    (
        ExponentialDelay(2.5, 4.0),
        lambda rng: min(rng.expovariate(1 / 2.5), 4.0),
    ),
]


class TestDelayFormulas:
    """The uniform and exponential draws are the stdlib's formulas,
    written out in ``repro.runtime.delay``.  So the formula is the
    repository's own: a CPython change to ``uniform`` or
    ``expovariate`` can no longer move a replay.  These
    twin-seed runs pin that the written-out forms are bit-equal to the
    stdlib calls they replaced, and so replay every recorded run."""

    DRAWS = 10_000

    @pytest.mark.parametrize(
        "model, stdlib",
        STDLIB_DRAWS,
        ids=[repr(model.spec()) for model, _ in STDLIB_DRAWS],
    )
    def test_bit_equal_to_the_stdlib_draw(self, model, stdlib):
        ours, theirs = random.Random(11), random.Random(11)
        drawn = [model.latency(1, 2, ours) for _ in range(self.DRAWS)]
        assert drawn == [stdlib(theirs) for _ in range(self.DRAWS)]
        if isinstance(model, ExponentialDelay) and model.cap <= 4 * model.mean:
            assert drawn.count(model.cap) > 0  # the cap binds

    def test_slow_pairs_bit_equal_to_the_stdlib_draw(self):
        slow = [(1, 2), (3, 3)]
        model = SlowPairsDelay(4.0, slow, lo=0.2, hi=1.1)
        channels = [(1, 2), (2, 1), (3, 3), (4, 5)]
        ours, theirs = random.Random(12), random.Random(12)
        for i in range(self.DRAWS):
            src, dst = channels[i % len(channels)]
            expected = theirs.uniform(0.2, 1.1)
            if (src, dst) in slow:
                expected *= 4.0
            assert model.latency(src, dst, ours) == expected


class TestDerivedSeed:
    def test_pure_function_of_seed_and_spec(self):
        spec = ("uniform", 0.1, 0.9)
        assert derive_async_seed(3, spec) == derive_async_seed(3, spec)
        assert derive_async_seed(3, spec) != derive_async_seed(4, spec)
        assert derive_async_seed(3, spec) != derive_async_seed(
            3, ("fixed", 0.5)
        )


class TestVirtualClock:
    def test_sleep_advances_virtual_time_instantly(self):
        loop = EventLoop()
        transport = AsyncTransport(loop, [])
        start = loop.now
        began = time.monotonic()
        transport.step(iter([1000.0]))
        loop.run()
        assert loop.now - start >= 1000.0
        assert time.monotonic() - began < 5.0

    def test_timer_ordering_is_preserved(self):
        loop = EventLoop()
        order = []
        loop.call_at(loop.now + 5.0, order.append, "late")
        loop.call_at(loop.now + 1.0, order.append, "early")
        loop.run()
        assert order == ["early", "late"]
        assert loop.now >= 5.0


class TestAsyncTransport:
    def _run(self, scenario, keys):
        """Run generator ``scenario(loop, transport)`` as the one task."""
        loop = EventLoop()
        transport = AsyncTransport(loop, keys)
        finished = []

        def task():
            yield from scenario(loop, transport)
            finished.append(True)

        transport.step(task())
        loop.run()
        assert finished, "the scenario never ran to its end"

    @staticmethod
    def _send(loop, transport, delay, key):
        """A timed wake, as the driver sends one: counted in flight, and
        one timer that lands it."""
        transport.in_flight += 1
        loop.call_at(loop.now + delay, transport.land, key)

    def test_deliver_at_tracks_in_flight(self):
        """A wake timed to land at a given instant is in flight until it
        lands."""

        def scenario(loop, transport):
            self._send(loop, transport, 2.0, "a")
            assert transport.in_flight == 1
            yield 3.0
            assert transport.in_flight == 0
            assert transport.woken == {"a": True, "b": False}

        self._run(scenario, ["a", "b"])

    def test_wait_consumes_the_wake(self):
        def scenario(loop, transport):
            transport.deliver_now("a")
            before = loop.now
            yield from transport.wait("a")
            # Consumed without suspending: no time passed.
            assert loop.now == before
            assert not transport.woken["a"]
            # A wake that finds the task parked resumes it early.
            self._send(loop, transport, 0.5, "a")
            yield from transport.wait("a")
            assert loop.now - before == 0.5
            assert not transport.woken["a"]

        self._run(scenario, ["a"])

    def test_a_park_arms_no_timer(self):
        """Only a wake resumes a parked task: with none sent, the loop
        runs out of work at once, the task still parked."""
        loop = EventLoop()
        transport = AsyncTransport(loop, ["a"])

        def task():
            yield from transport.wait("a")

        transport.step(task())
        assert "a" in transport._parked and not loop._timers
        loop.run()
        assert "a" in transport._parked and loop.now == 0.0

    def test_a_wake_on_a_set_flag_lands_without_a_call(self, monkeypatch):
        """The second of two wakes to an idle reader finds the flag set:
        the loop counts it off ``in_flight`` without calling ``_land``."""
        landed = []
        land = AsyncTransport._land

        def counted(transport, key):
            landed.append(key)
            land(transport, key)

        monkeypatch.setattr(AsyncTransport, "_land", counted)

        def scenario(loop, transport):
            self._send(loop, transport, 1.0, "a")
            self._send(loop, transport, 2.0, "a")
            assert transport.in_flight == 2
            yield 3.0
            assert transport.in_flight == 0 and transport.woken["a"]
            assert landed == ["a"]

        self._run(scenario, ["a"])

    def test_unknown_destination_is_a_noop(self):
        def scenario(loop, transport):
            transport.deliver_now("ghost")
            assert transport.in_flight == 0
            assert "ghost" not in transport.woken
            yield 2.0
            assert transport.woken == {"a": False}

        self._run(scenario, ["a"])


@pytest.mark.parametrize(
    "max_rounds, stats",
    [
        # Sent, none landed: the scheduled retry and the lost probes are
        # counted already, the acks not yet.
        (4, {"retries_scheduled": 1, "retries_lost": 4, "acked": 0, "retries_cancelled": 0}),
        # The retried wake has landed; two wait for their backstop.
        (6, {"retries_scheduled": 1, "retries_lost": 4, "acked": 1, "retries_cancelled": 1}),
        (300, {"retries_scheduled": 1, "retries_lost": 4, "acked": 3, "retries_cancelled": 1}),
    ],
)
def test_a_dropped_wake_lands_once(max_rounds, stats):
    """Three wakes a ``links`` plan drops on Figure 1: one lands on a
    clear retransmission, two on the fair-lossy backstop, each exactly
    once.  The budgets cut the run before and between the landings; the
    counts are the parent commit's, when a dropped wake was two timers."""
    from repro.faults.nemesis import random_plan
    from repro.groups.topology import paper_figure1_topology
    from repro.workloads.runner import random_sends, run_scenario
    from repro.workloads.spec import ScenarioSpec, TopologySpec

    topology = paper_figure1_topology()
    spec = ScenarioSpec(
        topology=TopologySpec.capture(topology),
        sends=tuple(random_sends(topology, 12, seed=3)),
        seed=3,
        max_rounds=max_rounds,
        backend="async",
        delay_model=("uniform", 0.1, 0.9),
        faults=random_plan(3, "links", 5, ("g1", "g2", "g3", "g4"), horizon=12),
    )
    result = run_scenario(spec)
    assert result.injector.stats["dropped"] == 3
    assert result.transport_stats == stats
    assert result.quiescent == (max_rounds == 300)


def test_a_lost_wake_is_an_error(monkeypatch):
    """The transport loses one wake: the last landing of the run that
    would resume a reader a write unparked (its task parked on its
    channel, its key out of ``proven_parked``).  The supervisor's next
    tick with no wake in flight names the reader.  While every park
    armed a timeout, the reader resumed a few rounds later and the run
    ended as if nothing had been lost."""
    run = dict(async_scenarios())["async:disjoint3x3:fixed:none"]
    drivers, resumes, lost = [], [], []
    driver_run, land = AsyncDriver.run, AsyncTransport._land

    def recorded(driver, **kwargs):
        drivers.append(driver)
        return driver_run(driver, **kwargs)

    def resumes_unparked(transport, key):
        return key in transport._parked and (
            key not in drivers[-1]._sched.proven_parked
        )

    def counting(transport, key):
        if resumes_unparked(transport, key):
            resumes.append(key)
        land(transport, key)

    def losing(transport, key):
        if resumes_unparked(transport, key):
            lost.append(key)
            if len(lost) == len(resumes):
                transport.in_flight -= 1
                return
        land(transport, key)

    monkeypatch.setattr(AsyncDriver, "run", recorded)
    monkeypatch.setattr(AsyncTransport, "_land", counting)
    assert run().delivered_everywhere()
    assert resumes
    monkeypatch.setattr(AsyncTransport, "_land", losing)
    with pytest.raises(SimulationError, match="lost wake") as caught:
        run()
    assert f"lost wake: {lost[-1]} " in str(caught.value)


class _CheckedFlags(dict):
    """A transport's ``woken`` that checks the landing invariant — a set
    flag has no task parked behind it — whenever the loop reads a flag
    to land a timed wake, and counts those reads."""

    def __init__(self, transport, reads):
        super().__init__(transport.woken)
        self._transport, self._reads = transport, reads

    def __getitem__(self, key):
        flag = dict.__getitem__(self, key)
        if sys._getframe(1).f_code is EventLoop.run.__code__:
            assert not (flag and key in self._transport._parked), key
            self._reads[flag] += 1
        return flag


def _plan_cell(mix):
    """The Figure 1 cell of the asyncio-oracle differential under one
    nemesis mix."""
    from repro.faults.nemesis import random_plan
    from repro.groups.topology import paper_figure1_topology
    from repro.workloads.runner import random_sends, run_scenario
    from repro.workloads.spec import ScenarioSpec, TopologySpec

    topology = paper_figure1_topology()
    captured = TopologySpec.capture(topology)
    spec = ScenarioSpec(
        topology=captured,
        sends=tuple(random_sends(topology, 12, seed=3)),
        seed=3,
        max_rounds=300,
        backend="async",
        delay_model=("uniform", 0.1, 0.9),
        faults=random_plan(
            1,
            mix,
            process_count=captured.process_count,
            groups=tuple(name for name, _ in captured.groups),
            horizon=12,
        ),
    )
    return lambda: run_scenario(spec)


LANDING_CELLS = dict(async_scenarios())
LANDING_CELLS.update({f"figure1:{mix}": _plan_cell(mix) for mix in ("links", "recovery")})


@pytest.mark.parametrize("cell", sorted(LANDING_CELLS))
def test_a_set_flag_has_nobody_parked_at_every_timed_landing(cell, monkeypatch):
    """``woken[key]`` implies ``key not in _parked`` wherever a timed
    wake lands: on the flag read by which the loop lands a wake inline
    or hands it to ``_land``, and on entry to ``_land`` (acks of dropped
    wakes and zero-latency wakes included).  The 16 ``async:*`` golden
    cells plus a ``links`` and a ``recovery`` plan."""
    reads = {True: 0, False: 0}
    landings = []
    init, land = AsyncTransport.__init__, AsyncTransport._land

    def checked_init(transport, loop, keys):
        init(transport, loop, keys)
        transport.woken = _CheckedFlags(transport, reads)

    def checked_land(transport, key):
        assert not (transport.woken[key] and key in transport._parked), key
        landings.append(key)
        land(transport, key)

    monkeypatch.setattr(AsyncTransport, "__init__", checked_init)
    monkeypatch.setattr(AsyncTransport, "_land", checked_land)
    result = LANDING_CELLS[cell]()
    assert result.delivered_everywhere()
    assert reads[True] + reads[False] > 0 and landings


class TestDriverValidation:
    def _system(self):
        from repro.core.engine import MulticastSystem
        from repro.groups.topology import paper_figure1_topology
        from repro.model.failures import FailurePattern

        topology = paper_figure1_topology()
        return MulticastSystem(
            topology, FailurePattern(topology.processes, {})
        )

    def test_wake_listener_cleared_after_run(self):
        system = self._system()
        driver = AsyncDriver(system, seed=1)
        outcome = driver.run(max_rounds=50)
        assert system.sink.wake_listener is None
        assert outcome.quiescent

    def test_a_raising_fire_leaves_run_where_it_happened(self, monkeypatch):
        """p1's fire raises at t = 5: the error must surface then, not
        after the surviving actors ran on to quiescence or the budget
        (on asyncio it sat in p1's task until the run was over)."""
        from repro.runtime.actors import SharedObjectActor
        from repro.workloads.runner import Send

        system = self._system()
        p1 = min(system.topology.processes)
        fire = SharedObjectActor.fire

        def exploding(actor, t, budget=None, parked=None):
            if actor._pid == p1 and t >= 5:
                raise RuntimeError("p1 broke")
            return fire(actor, t, budget, parked)

        monkeypatch.setattr(SharedObjectActor, "fire", exploding)
        driver = AsyncDriver(system, seed=1)
        sends = [Send(1, "g1", at_round=r) for r in range(12)]
        with pytest.raises(RuntimeError, match="p1 broke"):
            driver.run(
                sends=sends,
                issue=lambda send, t: system.multicast(p1, send.group),
                max_rounds=280,
            )
        assert system.time == 5
        # Torn down as on a clean exit.
        assert system.sink.wake_listener is None
        assert set(driver.last_transport_stats) == {
            "retries_scheduled",
            "retries_lost",
            "acked",
            "retries_cancelled",
        }


#: Frames of ``runtime/async_driver.py`` and ``runtime/delay.py`` per
#: wake or fire on :func:`test_wake_cost_ledger`'s cell: the measured
#: 2.48 plus 10 %.
WAKE_FRAMES_CEILING = 2.74

#: Builtin calls made from those files' frames per wake or fire: the
#: measured 3.94 plus 10 %.
WAKE_BUILTINS_CEILING = 4.34


def test_wake_cost_ledger():
    """The async driver's own frames and builtin calls per wake or fire.

    The golden Figure 1 ``exponential`` cell without a plan
    (``tests/runtime/_scenarios.py``) runs under ``sys.setprofile``.
    The ledger counts ``call`` events (generator resumptions included)
    whose code lives in ``runtime/async_driver.py`` or
    ``runtime/delay.py``, and the ``c_call`` events those frames make
    (``heappush``, ``rng.random``, ``deque.append`` …), and divides each
    by the wakes plus the actors' fires.  A wake is counted where it is
    sent, since a timed wake that lands on a set flag opens no frame:
    one ``latency`` frame ``_on_wake`` opens per timed wake, plus one
    ``deliver_now`` call per zero-latency one.  Only the repository's
    own frames count, so no stdlib frame (``random``, ``heapq``) moves
    the numbers between Python versions.

    With a wake routed ``_on_wake`` → ``_deliver`` → ``latency`` →
    ``expovariate`` → ``deliver_at`` → ``call_at``, landed by ``_land``
    → ``deliver_now``, and the loop clock read through ``EventLoop.time()``,
    this cell read 12.02 frames per landing or fire.  With every due
    timer passed through the ready ``deque`` and each latency clamped by
    ``max`` / ``min``, it made 10.16 builtin calls.  With every timed
    wake landed by a ``_land`` call and the pacing latency drawn in its
    own ``_pace`` frame, it read 4.91 frames and 6.39 builtin calls
    (494 wakes and 75 fires).  With a timer for every timed wake, each
    turn's due timers popped into a batch and every sleep's timer pushed
    by ``AsyncTransport.step``, it read 3.23 frames and 5.59 builtin
    calls.  With a timeout timer armed on every park and cancelled by
    the wake that ended it, 2.63 frames and 4.13 builtin calls (477
    wakes and 46 fires); a park arms no timer now.
    """
    run = dict(async_scenarios())["async:figure1:exponential:none"]
    own = tuple(
        os.path.join("runtime", name) for name in ("async_driver.py", "delay.py")
    )
    actors = os.path.join("runtime", "actors.py")
    counts = {"own": 0, "builtins": 0, "wakes": 0, "fires": 0}

    def profile(frame, event, _arg):
        if event == "c_call":
            if frame.f_code.co_filename.endswith(own):
                counts["builtins"] += 1
            return
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.endswith(own):
            counts["own"] += 1
            if code.co_name == "deliver_now" or (
                code.co_name == "latency"
                and frame.f_back.f_code.co_name == "_on_wake"
            ):
                counts["wakes"] += 1
        elif code.co_name == "fire" and code.co_filename.endswith(actors):
            counts["fires"] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    assert result.delivered_everywhere() and counts["wakes"] > 0
    events = counts["wakes"] + counts["fires"]
    assert counts["own"] / events <= WAKE_FRAMES_CEILING, counts
    assert counts["builtins"] / events <= WAKE_BUILTINS_CEILING, counts
