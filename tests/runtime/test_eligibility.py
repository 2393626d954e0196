"""The eligible set is the per-round alive sweep, memoized by epoch.

``Scheduler.eligible_order`` filters the sorted keys through the failure
pattern only when the clock crosses one of its change instants (crashes
and rejoins) and reuses the result in between.  The sweep it replaced —
every key asked ``is_alive`` every round — is
``_oracle.swept_eligible_order``; on crash-stop and ``crash_recover``
patterns, with and without a churn plan and a participation set, the two
must agree at every instant up to two past the last one at which
anything changes.
"""

from hypothesis import given, settings, strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.metrics.trace import TraceRecorder
from repro.model.failures import FailurePattern
from repro.model.processes import make_processes, pset
from repro.runtime.scheduler import Actor, Scheduler

from ._oracle import swept_eligible_order


@st.composite
def runs(draw, recoveries):
    """``(pattern, churn events, participation)`` over 2–6 processes."""
    processes = make_processes(draw(st.integers(2, 6)))
    crashes = draw(st.dictionaries(st.sampled_from(processes), st.integers(0, 12)))
    rejoins = {}
    if recoveries:
        gaps = draw(
            st.fixed_dictionaries({p: st.none() | st.integers(1, 6) for p in crashes})
        )
        rejoins = {p: crashes[p] + gap for p, gap in gaps.items() if gap is not None}
    pattern = FailurePattern(pset(processes), crashes, rejoins)
    churn = draw(
        st.lists(
            st.builds(
                lambda targets, start, length: FaultEvent(
                    kind="churn",
                    start=start,
                    until=start + length,
                    targets=tuple(sorted(p.index for p in targets)),
                ),
                st.sets(st.sampled_from(processes), min_size=1),
                st.integers(0, 12),
                st.integers(0, 6),
            ),
            max_size=3,
        )
    )
    participation = draw(st.none() | st.frozensets(st.sampled_from(processes)))
    return pattern, churn, participation


def assert_matches_the_sweep(pattern, churn, participation):
    injector = FaultInjector(FaultPlan(tuple(churn)), seed=0) if churn else None
    sched = Scheduler(
        {p: Actor() for p in pattern.processes},
        0,
        TraceRecorder(),
        pattern,
        injector=injector,
    )
    last = max((*pattern.change_instants(), *(e.until for e in churn)), default=0)
    for t in range(last + 3):
        for subset in (None, participation):
            assert sched.eligible_order(t, subset) == swept_eligible_order(
                sched, t, subset
            ), (t, subset)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(runs(recoveries=False))
def test_eligible_order_is_the_sweep_on_crash_stop_patterns(run):
    assert_matches_the_sweep(*run)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(runs(recoveries=True))
def test_eligible_order_is_the_sweep_on_crash_recover_patterns(run):
    assert_matches_the_sweep(*run)


def test_no_pattern_means_every_key_always_eligible():
    sched = Scheduler({k: Actor() for k in "cab"}, 0, TraceRecorder())
    assert sched.instants == ()
    for t in range(5):
        assert sched.eligible_order(t) == swept_eligible_order(sched, t) == list("abc")
