"""Property test: the faulted buffer still delivers everything.

The fairness condition of Appendix A says every datagram addressed to a
process taking infinitely many receive steps is eventually received.
Link faults bend the route — delays sequester, duplication multiplies,
drops force retransmissions, reordering permutes extraction — but within
the plan's finite horizon every perturbation must be spent: a receiver
that keeps taking steps past ``plan.horizon()`` (plus transit for the
datagrams sent last) drains the buffer completely.
"""

from hypothesis import given, settings, strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.model.messages import MessageBuffer
from repro.model.processes import make_processes

PROCS = make_processes(3)

link_delay = st.builds(
    FaultEvent,
    kind=st.just("link_delay"),
    start=st.integers(0, 6),
    amount=st.integers(1, 4),
    until=st.integers(7, 12),
)
link_reorder = st.builds(
    FaultEvent,
    kind=st.just("link_reorder"),
    start=st.integers(0, 6),
    amount=st.integers(2, 5),
    until=st.integers(7, 12),
)
link_dup = st.builds(
    FaultEvent,
    kind=st.just("link_dup"),
    start=st.integers(0, 6),
    amount=st.integers(1, 3),
    until=st.integers(7, 12),
)
link_drop = st.builds(
    FaultEvent,
    kind=st.just("link_drop"),
    start=st.integers(0, 6),
    amount=st.integers(1, 3),
    until=st.integers(7, 12),
)
plans = st.lists(
    st.one_of(link_delay, link_reorder, link_dup, link_drop),
    min_size=0,
    max_size=6,
).map(lambda events: FaultPlan(tuple(events)))

sends = st.lists(
    st.tuples(
        st.integers(0, 2),  # sender
        st.integers(0, 2),  # receiver
        st.integers(0, 8),  # send time
    ),
    min_size=1,
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(plan=plans, script=sends, seed=st.integers(0, 2**16))
def test_adversarial_extraction_delivers_within_the_horizon(
    plan, script, seed
):
    injector = FaultInjector(plan, seed=seed)
    buffer = MessageBuffer(injector)
    last_send = max(t for _, _, t in script)
    # Past the horizon every window is closed and every sequestered
    # datagram released; +2 covers transit of the last benign send.
    settle = max(injector.horizon, last_send) + 2
    received = 0
    for now in range(settle + 1):
        buffer.release(now)
        for src, dst, t in script:
            if t == now:
                buffer.send(PROCS[src], PROCS[dst], "PING", (src, dst, t))
        for p in PROCS:
            while buffer.receive(p) is not None:
                received += 1
    assert not any(buffer._pending.values())
    assert buffer.delayed_count() == 0
    assert received == len(script) + injector.stats["duplicated"]
    assert injector.audit(settle, buffer=buffer) == []
