"""``Omega_g`` takes an orphaned slot over (DESIGN.md §16, move (A)).

Until PR 23 a replica ran a ballot only for a value it held itself, so a
slot whose proposer died stayed open: the kernel burned its round budget
(``truncated``) or, when the members that had decided and delivered died
too, Termination was violated outright.  Each witness here is red at
PR 22: the static crash sweep, the three shrunk plans of the seed-11
soak (``tests/explore/repros/``, written by the random explorer the
nemesis grid has since replaced), a trimmed sweep of the family they belong to, and the
rejoined replica that decides alone.  The last section holds the other
half of the bargain: a failure-free run never executes the path.
"""

from __future__ import annotations

import glob
import os
from dataclasses import replace

import pytest

from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.shrink import load_repro, replay_repro
from repro.model.messages import MessageBuffer
from repro.model.processes import make_processes, pset
from repro.props.batch import verdicts_ok
from repro.sim.kernel import Context
from repro.substrates.replicated_log import ReplicatedLogAutomaton
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

KERNEL_BASE = ScenarioSpec(
    topology=TopologySpec.capture(disjoint_topology(2, group_size=3)),
    sends=(Send(1, "g1", 0), Send(4, "g2", 0)),
    backend="kernel",
    max_rounds=240,
    name="kernel-base",
)
REPROS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "explore", "repros", "*.json"))
)


@pytest.mark.parametrize("crash_at", range(1, 8))
def test_the_sender_crashes_with_its_slot_in_flight(crash_at):
    # PR 22: truncated for crash_at in 2..4, the rounds between p1's
    # ACCEPT and its DECIDE.
    result = run_scenario(replace(KERNEL_BASE, crashes=((1, crash_at),)))
    assert not result.truncated and result.quiescent
    assert verdicts_ok(result.verdicts())
    # Crashed at round 1, p1 never took a step: nobody has its message.
    assert result.delivered_everywhere() == (crash_at > 1)


def test_the_soak_witnesses_are_committed():
    assert [os.path.basename(path)[-15:-5] for path in REPROS] == [
        "13487d09ab",
        "fb199df45f",
        "e3f3add2e3",
    ]


@pytest.mark.parametrize("path", REPROS, ids=os.path.basename)
def test_a_soak_witness_replays_clean(path):
    payload = load_repro(path)
    assert payload["truncated"]  # what PR 22 read
    assert payload["triage"]["spec_hash"] == ScenarioSpec.from_json(payload["spec"]).spec_hash()
    replay = replay_repro(payload)
    assert not any(replay["verdicts"].values())
    assert replay["truncated"] is False


def family(seed):
    """``crash_recover`` p3 over ``[s, s+5 | s+7)``, then p2 and p1 die at
    ``c`` and ``c + 1``: p3 is down while the slot decides, or rejoins
    just before the only members that know the decision are gone."""
    for start in range(1, 8):
        for crash in range(start + 2, start + 7):
            for until in (start + 5, start + 7):
                plan = FaultPlan(
                    (
                        FaultEvent(kind="crash_recover", start=start, until=until, targets=(3,)),
                        FaultEvent(kind="crash_burst", start=crash, targets=(2,)),
                        FaultEvent(kind="crash_burst", start=crash + 1, targets=(1,)),
                    )
                )
                yield replace(KERNEL_BASE, seed=seed, faults=plan)


@pytest.mark.parametrize("seed", range(3))
def test_the_family_of_the_termination_violation_is_clean(seed):
    # 70 cells a seed; PR 22 truncates or violates Termination in 52 of
    # the 210 (213 of 840 over seeds 0-11).
    bad = []
    for spec in family(seed):
        result = run_scenario(spec)
        if result.truncated or not verdicts_ok(result.verdicts()):
            bad.append(spec.faults)
    assert bad == []


# -- The rejoined replica that decides alone ----------------------------------


def step(log, buffer, leader, quorum, time=0):
    ctx = Context(log.pid, time, {"omega": leader, "sigma": quorum}, buffer, [])
    log.on_step(ctx, buffer.receive(log.pid))


def test_a_replica_that_rejoins_alone_decides_what_it_had_accepted():
    p1, p2, p3 = make_processes(3)
    scope = pset([p1, p2, p3])
    buffer = MessageBuffer()
    log = ReplicatedLogAutomaton(p3, scope)
    buffer.send(p1, p3, "ACCEPT", (0, (1, 1), ("v",)))
    step(log, buffer, leader=p1, quorum=scope)
    assert log.snapshot()["slots"][0]["accepted_value"] == ("v",)
    # Accepted, not leader: it waits for a DECIDE p1 and p2 took to their graves.
    assert log.idle() and log.applied == []

    buffer.drop_all_for(p1)  # the ACCEPTED it died before reading
    rejoined = ReplicatedLogAutomaton(p3, scope)
    rejoined.restore(log.snapshot())
    alone = pset([p3])
    steps = 0
    while not rejoined.applied:
        # A one-member quorum is complete the moment a phase opens: the
        # replica must not read as parked between its own phases.
        assert not rejoined.idle()
        step(rejoined, buffer, leader=p3, quorum=alone)
        steps += 1
    # Take over and PREPARE, adopt and ACCEPT, decide: own replies only.
    assert steps == 3 and rejoined.applied == ["v"]
    assert rejoined.snapshot()["batches"] == [("v",)]
    assert rejoined.idle()
    # What it mailed the dead went unread; it needed no reply to any of it.
    mailed = {d.tag for p in (p1, p2) for d in buffer.inbox(p)}
    assert mailed == {"CATCHUP", "PREPARE", "ACCEPT", "DECIDE"}


def test_an_empty_slot_taken_over_decides_the_no_op():
    # Nobody accepted anything: the head is known open only because a
    # PREPARE for it arrived.  The new leader fills it with ``()``.
    p1, p2, p3 = make_processes(3)
    scope = pset([p1, p2, p3])
    buffer = MessageBuffer()
    log = ReplicatedLogAutomaton(p3, scope)
    buffer.send(p2, p3, "PREPARE", (0, (1, 2)))
    step(log, buffer, leader=p2, quorum=scope)
    assert log.idle()
    alone = pset([p3])
    for _ in range(3):
        step(log, buffer, leader=p3, quorum=alone)
    assert log.snapshot()["next_slot"] == 1 and log.snapshot()["batches"] == [()]
    assert log.applied == [] and log.idle()
    log.append("w")
    assert not log.idle()
    for _ in range(3):
        step(log, buffer, leader=p3, quorum=alone)
    assert log.applied == ["w"]


# -- Failure-free, the path is dead code --------------------------------------


def test_a_failure_free_run_never_takes_over_and_sends_no_catchup(wire, monkeypatch):
    """The ``kernel-wide`` shape of ``benchmarks/e2e/workloads.py`` on 4
    groups of 5, 25 waves: a stable leader never holds an open head
    without a proposal of its own, and no ``Omega`` output ever moves."""
    taken = []
    take_over = ReplicatedLogAutomaton._take_over
    monkeypatch.setattr(
        ReplicatedLogAutomaton,
        "_take_over",
        lambda self: taken.append(self.pid) or take_over(self),
    )
    groups, size, waves = 4, 5, 25
    spec = ScenarioSpec(
        topology=TopologySpec.from_generator(
            {"kind": "disjoint", "k": groups, "group_size": size}
        ),
        sends=tuple(
            Send(sender=(g - 1) * size + 1, group=f"g{g}", at_round=wave * 3)
            for wave in range(waves)
            for g in range(1, groups + 1)
        ),
        max_rounds=6000,
        backend="kernel",
    )
    result = run_scenario(spec)
    assert result.delivered_everywhere()
    assert taken == []
    assert {d.tag for d in wire} == {"ACCEPT", "ACCEPTED", "DECIDE"}
    # And every step was a receipt or an opening, 13 a slot (4 + 4 + 4
    # + 1) — plus the first step of a process that had no mail yet.
    slots = sum(
        log.snapshot()["next_slot"]
        for log in result.host.automata.values()
        if log.pid == log.scope[0]
    )
    assert len(wire) == 12 * slots
    steps = sum(result.host.steps_taken.values())
    assert 13 * slots <= steps <= 13 * slots + groups * size


def test_a_leader_crash_does_take_over(wire, monkeypatch):
    # The control of the test above: the spy sees the path when it runs.
    taken = []
    take_over = ReplicatedLogAutomaton._take_over
    monkeypatch.setattr(
        ReplicatedLogAutomaton,
        "_take_over",
        lambda self: taken.append(self.pid.index) or take_over(self),
    )
    result = run_scenario(replace(KERNEL_BASE, crashes=((1, 3),)))
    assert result.delivered_everywhere()
    assert taken == [2]
    assert [(d.src.index, d.dst.index) for d in wire if d.tag == "CATCHUP"] == [(3, 2)]
