"""Regression tests: the delayed-datagram lifecycle under real runs.

Link faults sequester datagrams in the buffer's delay heap.  Two
lifecycle bugs used to hide there: a run could be declared quiescent
while datagrams still sat in the heap (the scheduler only counted
visible queues), and a crashed destination's sequestered datagrams were
released into its dead inbox after the crash (inflating ``in_transit``
and tripping the post-run admissibility audit).  These scenarios pin
the fixes end-to-end: a kernel run under an ``omega_late`` +
``link_delay`` plan — with and without a crash — must terminate
quiescent, deliver everywhere, satisfy the §2.2 properties and pass the
injector audit.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultEvent, plan_of
from repro.props.batch import batch_verdicts, verdicts_ok
from repro.workloads import ScenarioSpec, Send, run_scenario
from repro.workloads.spec import TopologySpec
from repro.workloads.topologies import disjoint_topology

TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))
SENDS = (Send(1, "g1", 0), Send(4, "g2", 0), Send(2, "g1", 1))

#: Delays straddle the omega instability window, so released datagrams
#: land while leadership is still unsettled — the mix that used to fake
#: quiescence.
PLAN = plan_of(
    FaultEvent(kind="link_delay", start=0, until=6, amount=4),
    FaultEvent(kind="omega_late", group="g1", until=8),
)


def faulted_spec(**overrides):
    base = dict(
        topology=TOPO,
        sends=SENDS,
        seed=5,
        backend="kernel",
        faults=PLAN,
        max_rounds=600,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestQuiescenceAccounting:
    def test_sequestered_traffic_does_not_fake_quiescence(self):
        result = run_scenario(faulted_spec())
        assert result.quiescent and not result.truncated
        assert result.delivered_everywhere()
        assert verdicts_ok(batch_verdicts(result.record))

    @pytest.mark.parametrize("seed", range(4))
    def test_lifecycle_holds_across_seeds(self, seed):
        result = run_scenario(faulted_spec(seed=seed))
        # run_scenario raises AdmissibilityError if any datagram is
        # still sequestered past the horizon — completion alone proves
        # the heap drained before quiescence was declared.
        assert result.quiescent
        assert result.delivered_everywhere()

    def test_crash_purges_sequestered_datagrams(self):
        # One g2 member dies mid-delay-window: datagrams the link fault
        # is still holding for it must be dropped with the crash, not
        # released into a dead inbox afterwards (which would strand the
        # run short of quiescence and fail the audit).
        result = run_scenario(faulted_spec(crashes=((5, 4),)))
        assert result.quiescent and not result.truncated
        assert result.delivered_everywhere()
        assert verdicts_ok(batch_verdicts(result.record))


class _Drain:
    """Minimal actor: consumes its inbox, idle otherwise."""

    SKIP_WAIT = ("inbox",)

    def __init__(self, buffer, p):
        self.buffer = buffer
        self.p = p
        self.got = []

    def parked(self, t):
        return not self.buffer.has_pending(self.p)

    def fire(self, t, budget=None, parked=None):
        fired = 0
        datagram = self.buffer.receive(self.p)
        while datagram is not None:
            self.got.append(datagram.tag)
            fired += 1
            datagram = self.buffer.receive(self.p)
        return fired

    def wait_reasons(self):
        return ("inbox",)


def test_pending_work_guards_an_understated_horizon():
    """Quiescence must track the delay heap itself, not trust the
    horizon: a host that understates its settle horizon (say, a future
    event kind with a miscomputed ``ends_by``) would otherwise go
    quiescent with datagrams still sequestered."""
    import random

    from repro.faults.injector import FaultInjector
    from repro.metrics.trace import TraceRecorder
    from repro.model.messages import MessageBuffer
    from repro.model.processes import make_processes
    from repro.runtime import Scheduler
    from tests.runtime._oracle import force_scan

    p1, p2 = make_processes(2)
    injector = FaultInjector(
        plan_of(FaultEvent(kind="link_delay", start=0, until=2, amount=6)),
        seed=0,
    )
    buffer = MessageBuffer(injector)
    buffer.release(0)
    buffer.send(p1, p2, "SLOW")  # sequestered until t = 6
    assert buffer.delayed_count() == 1

    drain = _Drain(buffer, p2)
    sched = force_scan(
        Scheduler(
            {p2.name: drain},
            rng=random.Random(0),
            tracer=TraceRecorder(),
            is_alive=lambda _key, _t: True,
            pre_round=lambda t: buffer.release(t),
            settle_horizon=lambda: 0,  # deliberately understated
            pending_work=buffer.delayed_count,
        )
    )
    outcome = sched.run(max_rounds=30, quiescent_rounds=2)
    assert outcome.quiescent
    assert drain.got == ["SLOW"]  # delivered, not stranded
    assert buffer.in_transit() == 0
