"""Unit coverage for the async driver's parts: delay models, the
virtual clock, the transport, and the driver's validation surface
(the loop's turn rule has its own file, ``test_event_loop.py``).

The end-to-end semantics (delivery-set agreement with the round
backends, determinism, fault-plan mapping) live in
``tests/workloads/test_async_backend.py`` and
``tests/workloads/test_async_differential.py``; this file pins the
pieces in isolation so a regression names its layer.
"""

from __future__ import annotations

import random
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
        loop = EventLoop("virtual")
        transport = AsyncTransport(loop, [])
        start = loop.time()
        began = time.monotonic()
        transport.step(iter([1000.0]))
        loop.run()
        assert loop.time() - start >= 1000.0
        assert time.monotonic() - began < 5.0

    def test_timer_ordering_is_preserved(self):
        loop = EventLoop("virtual")
        order = []
        loop.call_at(loop.time() + 5.0, order.append, "late")
        loop.call_at(loop.time() + 1.0, order.append, "early")
        loop.run()
        assert order == ["early", "late"]
        assert loop.time() >= 5.0


class TestAsyncTransport:
    def _run(self, scenario, keys):
        """Run generator ``scenario(loop, transport)`` as the one task."""
        loop = EventLoop("virtual")
        transport = AsyncTransport(loop, keys)
        finished = []

        def task():
            yield from scenario(loop, transport)
            finished.append(True)

        transport.step(task())
        loop.run()
        assert finished, "the scenario never ran to its end"

    def test_deliver_at_tracks_in_flight(self):
        def scenario(loop, transport):
            transport.deliver_at(loop.time() + 2.0, "a")
            assert transport.in_flight == 1
            yield 3.0
            assert transport.in_flight == 0
            assert transport.woken == {"a": True, "b": False}

        self._run(scenario, ["a", "b"])

    def test_wait_consumes_the_wake(self):
        def scenario(loop, transport):
            transport.deliver_now("a")
            before = loop.time()
            yield from transport.wait("a", timeout=1.0)
            # Consumed without suspending: no time passed.
            assert loop.time() == before
            assert not transport.woken["a"]
            # A wake that finds the task parked resumes it early.
            transport.deliver_at(loop.time() + 0.5, "a")
            yield from transport.wait("a", timeout=4.0)
            assert loop.time() - before == 0.5
            assert not transport.woken["a"]

        self._run(scenario, ["a"])

    def test_wait_times_out_quietly(self):
        def scenario(loop, transport):
            before = loop.time()
            yield from transport.wait("a", timeout=2.0)
            assert loop.time() - before >= 2.0
            assert not transport.woken["a"]

        self._run(scenario, ["a"])

    def test_unknown_destination_is_a_noop(self):
        def scenario(loop, transport):
            transport.deliver_now("ghost")
            transport.deliver_at(loop.time() + 1.0, "ghost")
            transport.deliver_with_retries([loop.time() + 1.0], "ghost")
            assert transport.in_flight == 0
            assert "ghost" not in transport.woken
            yield 2.0
            assert transport.woken == {"a": False}

        self._run(scenario, ["a"])


class TestDriverValidation:
    def _system(self):
        from repro.core.engine import MulticastSystem
        from repro.groups import paper_figure1_topology
        from repro.model.failures import FailurePattern

        topology = paper_figure1_topology()
        return MulticastSystem(
            topology, FailurePattern(topology.processes, {})
        )

    def test_unknown_clock_raises(self):
        with pytest.raises(SimulationError):
            AsyncDriver(self._system(), clock="sundial")

    def test_nonpositive_round_duration_raises(self):
        with pytest.raises(SimulationError):
            AsyncDriver(self._system(), round_duration=0)

    def test_wake_listener_cleared_after_run(self):
        system = self._system()
        driver = AsyncDriver(system, seed=1)
        outcome = driver.run(max_rounds=50)
        assert system.wake_listener is None
        assert outcome.quiescent

    def test_a_raising_fire_leaves_run_where_it_happened(self, monkeypatch):
        """p1's fire raises at t = 5: the error must surface then, not
        after the surviving actors ran on to quiescence or the budget
        (on asyncio it sat in p1's task until the run was over)."""
        from repro.runtime.actors import SharedObjectActor
        from repro.workloads import Send

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
        assert system.wake_listener is None
        assert set(driver.last_transport_stats) == {
            "retries_scheduled",
            "retries_lost",
            "acked",
            "retries_cancelled",
        }
