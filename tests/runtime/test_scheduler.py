"""Unit tests of the shared :class:`repro.runtime.scheduler.Scheduler`.

The differential suite (``test_differential.py``) proves the scheduler
reproduces the seed loops on real hosts; these tests pin the contract
itself on stub actors — RNG draw order, skip soundness, full-scan
triggers, quiescence semantics and the tracer accounting — so a future
change that breaks the contract fails here with a readable message, not
just as a hash mismatch.
"""

from __future__ import annotations

import random

import pytest

from repro.metrics.trace import TraceRecorder
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok
from repro.runtime.actors import SystemActor
from repro.runtime.scheduler import (
    Actor,
    RunOutcome,
    Scheduler,
    shuffle,
    shuffle_draws,
)
from tests.runtime._oracle import force_scan


class CountdownActor(Actor):
    """Fires productively ``n`` times, then reports itself parked."""

    SKIP_WAIT = ("drained",)

    def __init__(self, n, log=None, key=None):
        self.left = n
        self.log = log if log is not None else []
        self.key = key

    def parked(self, t):
        return self.left <= 0

    def fire(self, t, budget=None, parked=None):
        self.log.append((t, self.key))
        if self.left > 0:
            self.left -= 1
            return 1
        return 0

    def wait_reasons(self):
        return ("drained",)


def make(actors, seed=7, **kwargs):
    return Scheduler(actors, seed, TraceRecorder(), **kwargs)


def test_one_shuffle_of_the_sorted_set_per_round():
    """The scheduler's only RNG use: sort the eligible keys, shuffle."""
    log = []
    actors = {k: CountdownActor(99, log, k) for k in ("c", "a", "b")}
    sched = make(actors, seed=42)
    sched.round()
    sched.round()

    reference = random.Random(42)
    expected = []
    for t in (1, 2):
        order = sorted(actors)
        reference.shuffle(order)
        expected.extend((t, k) for k in order)
    assert log == expected


class TestShuffle:
    """The round's shuffle is ``random.Random.shuffle``'s Fisher–Yates
    loop with ``_randbelow`` written out in ``repro.runtime.scheduler``.
    These twin-seed runs pin that it is bit-equal to the stdlib call it
    replaced — the same permutation and the same RNG state afterwards —
    so it replays every recorded schedule."""

    LONGEST = 300

    @pytest.mark.parametrize("seed", range(50))
    def test_bit_equal_to_the_stdlib_shuffle(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        draws = shuffle_draws(self.LONGEST)
        for n in range(self.LONGEST + 1):
            mine, stdlib = list(range(n)), list(range(n))
            shuffle(mine, ours.getrandbits, draws)
            theirs.shuffle(stdlib)
            assert mine == stdlib, n
            assert ours.getstate() == theirs.getstate(), n

    def test_a_scheduler_shuffles_with_its_own_draws(self):
        sched = make({k: CountdownActor(0) for k in range(7)}, seed=3)
        sched.round()
        assert sched._draws == shuffle_draws(7)
        assert [i for i, _ in sched._draws] == [6, 5, 4, 3, 2, 1]


def test_actors_of_one_scheduler_share_their_skip_reasons():
    class Other(CountdownActor):
        SKIP_WAIT = ("elsewhere",)

    with pytest.raises(SimulationError):
        make({"a": CountdownActor(0), "b": Other(0)}).round()


def test_skips_are_recorded_once_per_round_after_the_scans():
    """Memoised skips and asked ones alike land in the round trace: the
    skip count, and ``SKIP_WAIT`` once per skip, added after the
    scanned actors' reasons."""
    sched = make({k: CountdownActor(0 if k != "c" else 9) for k in "abc"})
    sched.round()  # full scan: the first fingerprint
    sched.proven_parked.add("a")  # what a host that proved it does
    sched.round()
    last = sched.tracer.rounds[-1]
    assert (last.scanned, last.skipped) == (1, 2)
    assert last.wait_reasons == {"drained": 2}
    sched.round(participation={"a", "b"})  # a full scan forgets every proof
    assert sched.tracer.rounds[-1].full_scan
    assert not sched.proven_parked


def test_parked_actors_skipped_after_the_shuffle():
    """Parking changes who acts, never the RNG stream."""
    log_a, log_b = [], []
    sched_a = make({k: CountdownActor(99, log_a, k) for k in "abc"}, seed=5)
    sched_b = make(
        {
            "a": CountdownActor(99, log_b, "a"),
            "b": CountdownActor(0, log_b, "b"),  # parks immediately
            "c": CountdownActor(99, log_b, "c"),
        },
        seed=5,
    )
    for _ in range(4):
        sched_a.round()
        sched_b.round()
    # Identical RNG consumption: the surviving actors fire in the same
    # relative order in both runs.
    assert [e for e in log_a if e[1] != "b"] == [
        e for e in log_b if e[1] != "b"
    ]
    # Round 1 is a full scan (first fingerprint); later rounds skip b.
    assert [e for e in log_b if e[1] == "b"] == [(1, "b")]
    assert sum(r.skipped for r in sched_b.tracer.rounds) == 3


def test_scan_mode_never_skips():
    sched = force_scan(make({k: CountdownActor(0) for k in "ab"}))
    for _ in range(3):
        sched.round()
    for r in sched.tracer.rounds:
        assert r.scanned == r.eligible == 2
        assert r.skipped == 0


def test_participation_change_forces_full_scan():
    sched = make({k: CountdownActor(0) for k in "ab"})
    sched.round()  # round 1: full scan, first fingerprint
    sched.round()  # steady state: both parked, both skipped
    assert sched.tracer.rounds[-1].skipped == 2
    sched.round(participation=("a",))  # new scheduled set: rescan
    assert sched.tracer.rounds[-1].full_scan
    assert sched.tracer.rounds[-1].scanned == 1


def test_settle_horizon_forces_scans_and_defers_quiescence():
    horizon = 3
    sched = make(
        {"a": CountdownActor(0)},
        settle_horizon=horizon,
    )
    outcome = sched.run(max_rounds=10, quiescent_rounds=2)
    # Idle rounds strictly before the horizon do not count toward
    # quiescence; every round up to it is a forced full scan.
    assert outcome.quiescent
    assert outcome.rounds == 4  # idle streak starts at t = horizon
    assert all(r.full_scan for r in sched.tracer.rounds[:horizon])


def test_run_halts_on_quiescence_and_reports_outcome():
    sched = make({"a": CountdownActor(3)})
    outcome = sched.run(max_rounds=50, quiescent_rounds=2)
    assert isinstance(outcome, RunOutcome)
    assert outcome.fired == 3
    assert outcome.rounds == 5  # 3 productive + 2 idle
    assert outcome.quiescent
    assert sched.last_run_quiescent


def test_fixed_budget_run_reports_end_state_quiescence():
    sched = make({"a": CountdownActor(2)})
    outcome = sched.run(max_rounds=6, halt_on_quiescence=False)
    assert outcome.rounds == 6  # the full budget, no early halt
    assert outcome.quiescent  # ...but it *ended* idle
    busy = make({"a": SystemActor(lambda t: 1)})
    outcome = busy.run(max_rounds=6, halt_on_quiescence=False)
    assert outcome.rounds == 6
    assert not outcome.quiescent
    assert not busy.last_run_quiescent


def test_stop_when_cuts_short_without_claiming_quiescence():
    sched = make({"a": SystemActor(lambda t: 1)})
    outcome = sched.run(max_rounds=50, stop_when=lambda: sched.time >= 4)
    assert outcome.rounds == 4
    assert not outcome.quiescent


def test_pre_round_hook_sees_the_advanced_clock():
    seen = []
    sched = make({"a": CountdownActor(1)}, pre_round=seen.append)
    sched.round()
    sched.round()
    assert seen == [1, 2]


def test_responders_filtered_by_liveness_and_default_to_scheduled():
    a, b = make_processes(2)
    sched = make(
        {k: CountdownActor(9) for k in (a, b)},
        pattern=FailurePattern(pset((a, b)), {b: 3}),
    )
    sched.round()
    assert sched.responders == frozenset((a, b))
    sched.round(responders=(a, b))
    assert sched.responders == frozenset((a, b))
    sched.round(responders=(a, b))
    assert sched.responders == frozenset((a,))


def test_an_action_budget_below_one_is_rejected():
    """A budget that fires nothing is refused before the clock moves."""
    sched = make({k: CountdownActor(1) for k in "ab"})
    sched.round()
    for budget in (0, -1):
        with pytest.raises(ValueError):
            sched.round(action_budget=budget)
    assert (sched.time, len(sched.tracer.rounds)) == (1, 1)


def test_pending_work_defers_quiescence():
    # An idle round with backlogged work (e.g. datagrams a link fault is
    # still sequestering) must not count toward quiescence.
    backlog = {"n": 3}

    def drain():
        if backlog["n"] > 0:
            backlog["n"] -= 1
            return 1
        return 0

    sched = make({"a": CountdownActor(0)}, pending_work=drain)
    outcome = sched.run(max_rounds=20, quiescent_rounds=2)
    assert outcome.quiescent
    # Three zero-fired rounds are spent waiting out the backlog before
    # the idle streak may start; then 2 genuinely idle rounds.
    assert outcome.rounds == 5


def test_pending_work_combines_with_settle_horizon():
    sched = make(
        {"a": CountdownActor(0)},
        settle_horizon=3,
        pending_work=lambda: 0,
    )
    outcome = sched.run(max_rounds=10, quiescent_rounds=2)
    assert outcome.quiescent
    assert outcome.rounds == 4  # horizon still gates the idle streak


def test_an_engine_run_asks_no_actor_whether_it_is_parked(monkeypatch):
    """The engine parks in ``proven_parked`` alone: ``SharedObjectActor``
    has no ``parked`` of its own, so neither a round nor the async driver
    asks one (the base answer, False, would repeat the set's lookup)."""
    from dataclasses import replace

    from repro.groups.topology import paper_figure1_topology
    from repro.runtime.actors import SharedObjectActor
    from repro.workloads.runner import random_sends, run_scenario
    from repro.workloads.spec import ScenarioSpec, TopologySpec

    assert "parked" not in vars(SharedObjectActor)

    def asked(self, t):
        raise AssertionError(f"{type(self).__name__}.parked asked at {t}")

    monkeypatch.setattr(Actor, "parked", asked)
    topology = paper_figure1_topology()
    spec = ScenarioSpec(
        topology=TopologySpec.capture(topology),
        sends=tuple(random_sends(topology, count=8, seed=3)),
        seed=3,
        max_rounds=300,
    )
    for backend in ("engine", "async"):
        result = run_scenario(replace(spec, backend=backend))
        assert_run_ok(result.record)
        assert not result.truncated
    rounds = run_scenario(spec).tracer.rounds
    assert sum(r.skipped for r in rounds) > 0


def test_no_host_takes_a_scheduling_mode():
    """Scan-vs-event is not an option anywhere: the scan loop is a test
    oracle (``_oracle.py``), so no constructor, spec or grid names it."""
    import inspect

    from repro.campaign.__main__ import smoke_campaign
    from repro.campaign.grid import Campaign
    from repro.core.engine import MulticastSystem
    from repro.sim.kernel import Kernel
    from repro.workloads.spec import ScenarioSpec

    for target in (
        Scheduler,
        MulticastSystem,
        Kernel,
        ScenarioSpec,
        ScenarioSpec.capture,
        Campaign,
        smoke_campaign,
    ):
        retired = [
            name
            for name in inspect.signature(target).parameters
            if name.startswith(("scheduling", "event_driven"))
        ]
        assert not retired, f"{target.__qualname__} still takes {retired}"


def test_a_scheduler_is_built_from_the_failure_pattern():
    """Liveness, its change instants and the first responders come from
    one ``pattern``, the seed is an int and the async loop clock counts
    rounds: no constructor takes a value the pattern or the round would
    contradict, and no core object sits between the scheduler and the
    async driver."""
    import importlib.util
    import inspect

    import repro.runtime
    from repro.runtime.async_driver import AsyncDriver

    taken = inspect.signature(Scheduler).parameters
    for name in ("is_alive", "alive_instants", "responders", "rng"):
        assert name not in taken, f"Scheduler still takes {name}"
    for name in ("round_duration", "clock"):
        assert name not in inspect.signature(AsyncDriver).parameters
    assert not [name for name in dir(repro.runtime) if name.endswith("Core")]
    assert importlib.util.find_spec("repro.runtime.core") is None
