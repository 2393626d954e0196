"""The stall watchdog and the async retransmission backoff.

Unit half: :class:`StallWatchdog` fires exactly at its no-progress
window (never during grace, never while the fingerprint moves) and
``_retry_offsets`` draws deterministic, strictly increasing
backoff ladders.  Integration half: the planted ``supersede-wait``
stall — the retained PR 4 liveness bug — converts from a 240-round
budget burn into a :class:`StallError` carrying the wait-reason
histogram, while the *fixed* protocol under the identical watchdog is
untouched, and a fault-free engine run produces a byte-identical row
with and without the watchdog (the watchdog is a harness concern, not
part of the scenario).
"""

import random

import pytest

from repro.faults.plan import FaultEvent, FaultPlan
from repro.model.errors import SimulationError
from repro.runtime.async_driver import RETRY_BUDGET, _retry_offsets
from repro.runtime.watchdog import StallError, StallWatchdog
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))
SENDS = (Send(1, "g1", 0), Send(4, "g2", 0))

#: The PR 4 trigger: a late Omega rotating suspicion through g1 makes
#: the quirked proposer wait forever on promises that cannot arrive.
OMEGA_ROTATION = FaultPlan(
    (FaultEvent(kind="omega_late", group="g1", until=24),)
)


def kernel_spec(**overrides):
    base = dict(
        topology=TOPO, sends=SENDS, backend="kernel", max_rounds=240
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestStallWatchdog:
    def test_fires_after_window_of_no_progress(self):
        dog = StallWatchdog(lambda: 0, window=5)
        for t in range(1, 5):
            dog.check(t)
        with pytest.raises(StallError) as err:
            dog.check(5)
        assert err.value.stalled_checks == 5
        assert err.value.at_time == 5

    def test_progress_resets_the_window(self):
        progress = [0]
        dog = StallWatchdog(lambda: progress[0], window=3)
        dog.check(1)
        dog.check(2)
        progress[0] += 1  # progress: the idle streak restarts
        dog.check(3)
        dog.check(4)
        dog.check(5)
        with pytest.raises(StallError):
            dog.check(6)

    def test_grace_period_never_fires(self):
        """Detector-blocked idling during stabilization is convergence,
        not a stall — checks at ``t <= grace`` do not count."""
        dog = StallWatchdog(lambda: 0, window=2, grace=10)
        for t in range(1, 11):
            dog.check(t)
        dog.check(11)
        with pytest.raises(StallError):
            dog.check(12)

    def test_triage_payload_carries_the_histogram(self):
        dog = StallWatchdog(
            lambda: 0,
            window=1,
            wait_reasons=lambda: {"supersede": 7, "idle": 3},
        )
        with pytest.raises(StallError) as err:
            dog.check(1)
        triage = err.value.to_triage()
        assert triage["wait_reasons"] == {"supersede": 7, "idle": 3}
        assert triage["at_time"] == 1
        assert triage["stalled_checks"] == 1

    def test_stop_when_probe_raises_not_stops(self):
        dog = StallWatchdog(lambda: 0, window=1)
        probe = dog.stop_when(lambda: 9)
        with pytest.raises(StallError):
            probe()

    def test_rejects_degenerate_settings(self):
        with pytest.raises(SimulationError):
            StallWatchdog(lambda: 0, window=0)


class TestRetransmitPolicy:
    def test_offsets_are_deterministic_per_seed(self):
        a = _retry_offsets(random.Random(42))
        b = _retry_offsets(random.Random(42))
        assert a == b
        assert a != _retry_offsets(random.Random(43))

    def test_offsets_are_strictly_increasing_and_bounded(self):
        rng = random.Random(7)
        offsets = _retry_offsets(rng)
        assert len(offsets) == RETRY_BUDGET
        assert all(b > a for a, b in zip(offsets, offsets[1:]))
        assert offsets[0] > 0.0
        # One draw per retry, nothing else: the async sim_digests hang
        # on the driver RNG's stream position.
        reference = random.Random(7)
        for _ in range(RETRY_BUDGET):
            reference.random()
        assert rng.random() == reference.random()


class TestPlantedStall:
    """The supersede-wait stall under the runner's watchdog."""

    def test_stall_converts_to_stall_error_with_histogram(self):
        spec = kernel_spec(
            quirks=("supersede-wait",), faults=OMEGA_ROTATION
        )
        with pytest.raises(StallError) as err:
            run_scenario(spec, stall_window=100)
        assert err.value.at_time < spec.max_rounds
        assert err.value.stalled_checks >= 100
        assert sum(err.value.wait_reasons.values()) > 0

    def test_without_watchdog_the_stall_burns_the_budget(self):
        result = run_scenario(
            kernel_spec(quirks=("supersede-wait",), faults=OMEGA_ROTATION)
        )
        assert result.rounds == 240
        assert not result.quiescent

    def test_fixed_path_is_untouched_by_the_same_watchdog(self):
        spec = kernel_spec(faults=OMEGA_ROTATION)
        watched = run_scenario(spec, stall_window=100)
        plain = run_scenario(spec)
        assert watched.quiescent and plain.quiescent
        assert watched.rounds == plain.rounds
        assert watched.to_row() == plain.to_row()

    def test_fault_free_engine_row_is_byte_identical_under_watchdog(self):
        """The watchdog is not part of the spec: hashes, rows and
        traces of a healthy run cannot depend on whether it was armed."""
        from repro.groups.topology import paper_figure1_topology
        from repro.workloads.runner import random_sends

        topo = paper_figure1_topology()
        spec = ScenarioSpec(
            topology=TopologySpec.capture(topo),
            sends=tuple(random_sends(topo, count=3, seed=5)),
            seed=5,
            max_rounds=200,
            backend="engine",
        )
        assert (
            run_scenario(spec, stall_window=64).to_row()
            == run_scenario(spec).to_row()
        )


class TestAsyncRetransmission:
    """Seeded retransmission is a pure function of the spec: delivery
    sets *and* transport counters replay exactly."""

    #: Lossy windows anchored at t=1: the async backend resolves each
    #: consensus instance within one logical round (protocol hops are
    #: fractions of a round), so the whole datagram burst happens at
    #: t=1 and windows opening later never see traffic.  The flaky
    #: jitter spread (``amount=4``) pushes some fair-lossy backstops
    #: past the window close, which is what lets a *clear* early
    #: backoff rung beat them — exercising ``retries_scheduled`` and
    #: ``retries_cancelled``, not just the backstop path.
    RECOVERY = FaultPlan(
        (
            FaultEvent(kind="partition", start=1, until=4, targets=(4,)),
            FaultEvent(kind="link_flaky", start=1, until=3, amount=4),
            FaultEvent(
                kind="crash_recover", start=0, until=8, targets=(5,)
            ),
        )
    )

    def _spec(self):
        return ScenarioSpec(
            topology=TOPO,
            sends=SENDS,
            seed=9,
            max_rounds=400,
            backend="async",
            faults=self.RECOVERY,
        )

    def test_virtual_clock_replay_is_exact(self):
        first = run_scenario(self._spec(), stall_window=150)
        second = run_scenario(self._spec(), stall_window=150)
        assert first.quiescent and second.quiescent
        deliveries = lambda r: sorted(  # noqa: E731
            (e.process.name, str(e.message.mid))
            for e in r.record.deliveries
        )
        assert deliveries(first) == deliveries(second)
        assert first.transport_stats == second.transport_stats

    def test_lossy_run_schedules_and_resolves_retries(self):
        result = run_scenario(self._spec())
        stats = result.transport_stats
        assert stats is not None
        # The plan drops datagrams at t=1 (flaky window + partition
        # cut), so every ladder lands exactly once ("acked"), in-window
        # backoff probes are presumed lost ("retries_lost"), and the
        # spread flaky backstops leave room for clear early rungs.
        assert stats["acked"] > 0
        assert stats["retries_lost"] > 0
        assert stats["retries_scheduled"] > 0
        # An early rung is strictly earlier than the backstop it rides
        # with, so each scheduled retry cancels exactly one rung.
        assert stats["retries_cancelled"] == stats["retries_scheduled"]
        assert result.to_row()["transport"] == stats
