"""Unit tests of the shared :class:`repro.runtime.Scheduler`.

The differential suite (``test_differential.py``) proves the scheduler
reproduces the seed loops on real hosts; these tests pin the contract
itself on stub actors — RNG draw order, skip soundness, full-scan
triggers, quiescence semantics and the tracer accounting — so a future
change that breaks the contract fails here with a readable message, not
just as a hash mismatch.
"""

from __future__ import annotations

import random

from repro.metrics.trace import TraceRecorder
from repro.runtime import Actor, RunOutcome, Scheduler, SystemActor
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
    return Scheduler(
        actors,
        rng=random.Random(seed),
        tracer=TraceRecorder(),
        is_alive=kwargs.pop("is_alive", lambda _key, _t: True),
        **kwargs,
    )


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
        settle_horizon=lambda: horizon,
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
    alive = {"a": True, "b": True}
    sched = make(
        {k: CountdownActor(9) for k in "ab"},
        is_alive=lambda key, _t: alive[key],
    )
    sched.round()
    assert sched.responders == frozenset("ab")
    sched.round(responders=("a", "b"))
    assert sched.responders == frozenset("ab")
    alive["b"] = False
    sched.round(responders=("a", "b"))
    assert sched.responders == frozenset("a")


def test_zero_action_budget_forces_full_scan():
    sched = make({k: CountdownActor(0) for k in "ab"})
    sched.round()
    sched.round(action_budget=0)
    assert sched.tracer.rounds[-1].full_scan
    assert sched.tracer.rounds[-1].scanned == 2


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
        settle_horizon=lambda: 3,
        pending_work=lambda: 0,
    )
    outcome = sched.run(max_rounds=10, quiescent_rounds=2)
    assert outcome.quiescent
    assert outcome.rounds == 4  # horizon still gates the idle streak


def test_no_host_takes_a_scheduling_mode():
    """Scan-vs-event is not an option anywhere: the scan loop is a test
    oracle (``_oracle.py``), so no constructor, spec or grid names it."""
    import inspect

    from repro.campaign.__main__ import smoke_campaign
    from repro.campaign.grid import Campaign
    from repro.core import MulticastSystem
    from repro.sim import Kernel
    from repro.workloads import ScenarioSpec

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
