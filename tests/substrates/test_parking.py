"""Parking is sound: an idle replica's null step changes nothing.

``ReplicatedLogAutomaton.idle`` claims that a step with no datagram,
under the detector sample of the replica's last step, is a no-op; the
kernel skips such a replica until mail arrives or its detector module
answers something else (``AutomatonActor.parked``).  Two checks:

* the claim itself, on every replica state the nemesis sweeps and a
  Hypothesis-driven schedule reach — take the null step on a copy and
  compare;
* the consequence, end to end — a kernel that steps everyone every round
  (``tests/runtime/_oracle.py::scan_round``) delivers the same sequences,
  reads the same verdicts and puts the same number of datagrams on the
  wire, in more steps.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.nemesis import MIXES, random_plan
from repro.model.messages import MessageBuffer
from repro.model.processes import make_processes, pset
from repro.sim.kernel import Context
from repro.substrates.replicated_log import ReplicatedLogAutomaton
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology
from tests.runtime._oracle import scan_everywhere

BASES = {
    "2x3": (
        TopologySpec.capture(disjoint_topology(2, group_size=3)),
        (Send(1, "g1", 0), Send(4, "g2", 0), Send(2, "g1", 1), Send(6, "g2", 3)),
    ),
    "3x3": (
        TopologySpec.capture(disjoint_topology(3, group_size=3)),
        (
            Send(1, "g1", 0),
            Send(4, "g2", 0),
            Send(7, "g3", 1),
            Send(2, "g1", 1),
            Send(5, "g2", 4),
            Send(9, "g3", 6),
        ),
    ),
}


def faulted(base, mix, seed):
    topology, sends = BASES[base]
    built = topology.build()
    groups = tuple(sorted(g.name for g in built.groups))
    return ScenarioSpec(
        topology=topology,
        sends=sends,
        seed=seed,
        backend="kernel",
        max_rounds=400,
        faults=random_plan(seed, mix, len(built.processes), groups),
    )


#: The shipped step, whatever a fixture wraps around it.
ON_STEP = ReplicatedLogAutomaton.on_step


def assert_a_null_step_changes_nothing(log, time):
    """``log.idle()`` holds: step a copy on the null message under the
    sample of its last step, now and long after any timer would fire."""
    for when in (time, time + 1000):
        # The copy must not drag the kernel's buffer along.
        probe = copy.deepcopy(log, {id(log._slot_ctx._ctx): None})
        buffer, outputs = MessageBuffer(), []
        ON_STEP(probe, Context(log.pid, when, log._sample, buffer, outputs), None)
        assert probe.snapshot() == log.snapshot()
        assert probe.applied == log.applied
        assert outputs == [] and buffer.sent_count == 0
        assert probe.idle()


@pytest.fixture
def every_state_checked(monkeypatch):
    """After every replica step of the test, check the idle claim;
    returns the running count of idle states seen."""
    seen = {"idle": 0}

    def checked(self, ctx, datagram):
        ON_STEP(self, ctx, datagram)
        if self.idle():
            seen["idle"] += 1
            assert_a_null_step_changes_nothing(self, ctx.time)

    monkeypatch.setattr(ReplicatedLogAutomaton, "on_step", checked)
    return seen


@pytest.mark.parametrize("mix", MIXES)
def test_idle_states_of_the_nemesis_sweeps(every_state_checked, mix):
    for seed in range(10):
        result = run_scenario(faulted("2x3", mix, seed))
        assert not result.truncated
    assert every_state_checked["idle"] > 100


def test_idle_states_of_static_crashes(every_state_checked):
    topology, sends = BASES["2x3"]
    for victim in (1, 2):
        for crash_at in range(1, 9):
            spec = ScenarioSpec(
                topology=topology,
                sends=sends,
                backend="kernel",
                max_rounds=240,
                crashes=((victim, crash_at),),
            )
            assert not run_scenario(spec).truncated
    assert every_state_checked["idle"] > 100


# -- A schedule generator ------------------------------------------------------

SIZE = 3
member = st.integers(min_value=0, max_value=SIZE - 1)
actions = st.one_of(
    st.tuples(st.just("step"), member),
    st.tuples(st.just("step"), member),
    st.tuples(st.just("step"), member),
    st.tuples(st.just("append"), member),
    st.tuples(st.just("leader"), member),
    st.tuples(st.just("quorum"), st.sets(member, min_size=1)),
    st.tuples(st.just("restore"), member),
    st.tuples(st.just("lose"), member),
)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=st.lists(actions, min_size=5, max_size=80), timer=st.sampled_from([None, 3]))
def test_idle_states_of_generated_schedules(script, timer):
    """Any interleaving of steps, appends, ``Omega`` / ``Sigma`` moves,
    crash-restores and lost datagrams: schedules no kernel run produces."""
    procs = make_processes(SIZE)
    scope = pset(procs)
    buffer = MessageBuffer()
    logs = {p: ReplicatedLogAutomaton(p, scope, retransmit_interval=timer) for p in procs}
    leader, quorum = procs[0], scope
    appended = 0
    for time, (action, arg) in enumerate(script):
        if action == "step":
            p = procs[arg]
            sample = {"omega": leader, "sigma": quorum}
            logs[p].on_step(Context(p, time, sample, buffer, []), buffer.receive(p))
            if logs[p].idle():
                assert_a_null_step_changes_nothing(logs[p], time)
        elif action == "append":
            logs[procs[arg]].append(f"v{appended}")
            appended += 1
        elif action == "leader":
            leader = procs[arg]
        elif action == "quorum":
            quorum = pset(procs[i] for i in arg)
        elif action == "restore":
            p = procs[arg]
            rejoined = ReplicatedLogAutomaton(p, scope, retransmit_interval=timer)
            rejoined.restore(logs[p].snapshot())
            logs[p] = rejoined
            buffer.drop_all_for(p)
        elif action == "lose" and buffer.has_pending(procs[arg]):
            buffer.receive(procs[arg])
    # One order, at most once, whatever the schedule did.
    longest = max((log.applied for log in logs.values()), key=len)
    for log in logs.values():
        assert log.applied == longest[: len(log.applied)]
        assert len(set(log.applied)) == len(log.applied)


# -- The kernel next to one that steps everyone every round --------------------


def observed(result):
    deliveries = {}
    for event in result.record.deliveries:
        deliveries.setdefault(event.process, []).append(event.message.mid)
    return (
        deliveries,
        result.verdicts(),
        result.host.buffer.sent_count,
        result.truncated,
        result.delivered_everywhere(),
    )


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("mix", MIXES)
def test_parking_changes_nothing_a_run_can_show(monkeypatch, base, mix):
    for seed in range(10):
        spec = faulted(base, mix, seed)
        parked = run_scenario(spec)
        with monkeypatch.context() as patch:
            scan_everywhere(patch)
            scanned = run_scenario(spec)
        assert observed(parked) == observed(scanned), seed
        steps = sum(parked.host.steps_taken.values())
        assert steps <= sum(scanned.host.steps_taken.values())
        skipped = parked.tracer.summary()["skipped"]
        assert (skipped > 0) == (steps < sum(scanned.host.steps_taken.values()))
