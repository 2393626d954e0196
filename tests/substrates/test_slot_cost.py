"""What the §4.3 consensus puts on the wire (DESIGN.md §16 "What a slot costs").

Three moves, one section each: (A) a process never mails itself,
(B) DECIDE goes from the decider to everyone else and no further, and
still reaches everyone when the decider dies mid-broadcast because the
next ``Omega`` leader is asked, (C) only the instance's lowest ballot
skips phase 1, and only once.  The ledger also counts what a slot
*carries*: everything queued at the leader when it opens.  A last
section runs the shipped protocol next to the retired ones
(``_oracle.FloodingConsensus``, ``_oracle.SingleValueSlots``,
``_oracle.RelayingConsensus`` / ``OrphaningLog``) under random fault plans.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.detectors.leader import OmegaOracle
from repro.detectors.quorum import SigmaOracle
from repro.faults.nemesis import random_plan
from repro.faults.plan import FaultEvent, FaultPlan
from repro.model.failures import crash_pattern, failure_free
from repro.model.messages import MessageBuffer
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok
from repro.sim.kernel import Context, Kernel
from repro.substrates.consensus import ConsensusAutomaton, OmegaSigmaSampler
from repro.substrates.replicated_log import ReplicatedLogAutomaton, ReplicatedLogCluster
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology
from tests.runtime._scenarios import (
    canonical_hash,
    kernel_fingerprint,
    kernel_scenarios,
)
from tests.substrates._oracle import (
    flooding,
    relaying,
    single_value_slots,
    supersede_wait_everywhere,
)
from tests.workloads import test_pipeline_rows as pipeline_rows


def run_log(scope, appends, seed=1, pattern=None, rounds=600):
    """A replicated log over ``scope``, run until every correct member
    applied ``len(appends)`` entries and the buffer drained."""
    pattern = pattern or failure_free(scope)
    cluster = ReplicatedLogCluster(pattern, scope)
    for p, value in appends:
        cluster.append(p, value)
    kernel = Kernel(pattern, cluster.automata, cluster.detectors, seed=seed)
    kernel.run(
        rounds,
        stop_when=lambda: not any(kernel.buffer._pending.values())
        and not kernel.buffer._delayed
        and all(len(cluster.automata[p].applied) >= len(appends) for p in pattern.correct),
    )
    return cluster, kernel


def kernel_spec(group_size, sends, groups=1, **fields):
    topology = TopologySpec.capture(disjoint_topology(groups, group_size=group_size))
    return ScenarioSpec(
        topology=topology, sends=sends, backend="kernel", max_rounds=400, **fields
    )


class Bench:
    """One consensus instance (or one log) driven by hand, an Appendix-A
    step at a time.

    Real automata, a real :class:`MessageBuffer`, real step contexts; the
    test picks who steps, what that step receives and what ``Omega``
    and ``Sigma`` currently say.
    """

    def __init__(self, size, leader=0, automaton=ConsensusAutomaton):
        self.procs = make_processes(size)
        self.scope = pset(self.procs)
        self.buffer = MessageBuffer()
        self.automata = {p: automaton(p, self.scope) for p in self.procs}
        self.leader = self.procs[leader]
        self.quorum = self.scope

    def step(self, p):
        """``p`` receives its oldest pending datagram (or null) and moves."""
        sample = {"omega": self.leader, "sigma": self.quorum}
        ctx = Context(p, 0, sample, self.buffer, [])
        self.automata[p].on_step(ctx, self.buffer.receive(p))

    def drain(self, who, order=None):
        """Step ``who`` round-robin until none of them has mail left."""
        who = list(who)
        order = order or random.Random(0)
        while any(self.buffer.has_pending(p) for p in who):
            order.shuffle(who)
            for p in who:
                self.step(p)

    def pending(self, tag):
        return [
            d for p in self.procs for d in self.buffer.inbox(p) if d.tag == tag
        ]


# -- (A) own messages are handled in place ------------------------------------


class TestNoSelfAddressedMail:
    @pytest.mark.parametrize("crash_at", range(1, 7))
    def test_consensus_under_a_leader_crash(self, wire, crash_at):
        # A failure-free decision takes 7 rounds here, so every one of
        # these crashes lands inside the leader's ballot and the second
        # member has to take over.
        procs = make_processes(4)
        scope = pset(procs)
        pattern = crash_pattern(scope, {procs[0]: crash_at})
        automata = {p: ConsensusAutomaton(p, scope) for p in procs}
        restricted = pattern.restricted_to(scope)
        omega = OmegaOracle(restricted, scope, stabilization_time=crash_at + 2)
        sampler = OmegaSigmaSampler(omega, SigmaOracle(restricted, scope))
        for p in procs:
            automata[p].propose(f"v{p.index}")
        kernel = Kernel(pattern, automata, dict.fromkeys(procs, sampler), seed=4)
        correct = [automata[p] for p in pattern.correct]
        kernel.run(300, stop_when=lambda: all(a.decision is not None for a in correct))
        decisions = {a.decision for a in correct}
        assert None not in decisions and len(decisions) == 1
        assert wire and all(d.src != d.dst for d in wire)

    @pytest.mark.parametrize(
        "fields, patch",
        [
            ({}, None),
            ({"crashes": ((3, 5),)}, None),
            ({}, supersede_wait_everywhere),
            # Armed retransmission timer, drops, rotation, crash-recovery.
            ({"faults": random_plan(4, "links", 10, ("g1", "g2"))}, None),
            ({"faults": random_plan(2, "full", 10, ("g1", "g2"))}, None),
            ({"faults": random_plan(5, "recovery", 10, ("g1", "g2"))}, None),
        ],
        ids=["failure-free", "crash", "supersede-wait", "links", "full", "recovery"],
    )
    def test_replicated_log_runs(self, monkeypatch, wire, fields, patch):
        if patch is not None:
            patch(monkeypatch)
        sends = (Send(1, "g1", 0), Send(7, "g2", 0), Send(3, "g1", 1), Send(6, "g2", 4))
        run_scenario(kernel_spec(5, sends, groups=2, seed=3, **fields))
        assert wire and all(d.src != d.dst for d in wire)

    def test_a_single_member_scope_decides_without_any_datagram(self, wire):
        (p,) = make_processes(1)
        cluster, _ = run_log(pset([p]), [(p, "a"), (p, "b")])
        assert tuple(cluster.automata[p].applied) == ("a", "b")
        assert wire == []


class TestTheLedger:
    """Failure-free, every append at the leader: the per-slot cost is exact."""

    APPENDS = 6

    def ledger(self, wire):
        procs = make_processes(5)
        appends = [(procs[0], f"v{i}") for i in range(self.APPENDS)]
        cluster, kernel = run_log(pset(procs), appends)
        assert all(len(cluster.automata[p].applied) == self.APPENDS for p in procs)
        assert kernel.buffer.received_count == len(wire)
        per_tag = Counter(d.tag for d in wire)
        leader_receipts = sum(1 for d in wire if d.dst == procs[0])
        return per_tag, leader_receipts

    def test_a_slot_costs_12_datagrams_and_its_leader_4_receipts(self, wire):
        # Six appends queued when the head slot opens are one slot.
        per_tag, leader_receipts = self.ledger(wire)
        assert per_tag == {"ACCEPT": 4, "ACCEPTED": 4, "DECIDE": 4}
        assert leader_receipts == 4
        assert {d.body[0] for d in wire} == {0}

    def test_a_learner_takes_2_steps_a_slot_and_none_between_them(self):
        procs = make_processes(5)
        pattern = failure_free(pset(procs))
        cluster = ReplicatedLogCluster(pattern, pset(procs))
        kernel = Kernel(pattern, cluster.automata, cluster.detectors, seed=1)
        kernel.round()  # everyone's first step, nothing to do yet
        slots = 3
        for slot in range(slots):
            cluster.append(procs[0], f"v{slot}")
            kernel.run(40, quiescent_rounds=2)
            assert kernel.last_run_quiescent
        assert {tuple(cluster.automata[p].applied) for p in procs} == {("v0", "v1", "v2")}
        # The ACCEPT and the DECIDE: a learner that has accepted is parked.
        assert [kernel.steps_taken[p] - 1 for p in procs[1:]] == [2 * slots] * 4
        # The opening and the 4 ACCEPTED (``Sigma`` is the whole scope here).
        assert kernel.steps_taken[procs[0]] - 1 == 5 * slots

    def test_a_value_appended_while_a_slot_is_open_rides_the_next_one(self, wire):
        procs = make_processes(5)
        pattern = failure_free(pset(procs))
        cluster = ReplicatedLogCluster(pattern, pset(procs))
        kernel = Kernel(pattern, cluster.automata, cluster.detectors, seed=1)
        cluster.append(procs[0], "v0")
        kernel.round()  # the leader opens slot 0 with what it holds
        cluster.append(procs[0], "v1")
        cluster.append(procs[0], "v2")
        kernel.run(100, stop_when=lambda: not any(kernel.buffer._pending.values()))
        assert {tuple(cluster.automata[p].applied) for p in procs} == {("v0", "v1", "v2")}
        decided = {d.body for d in wire if d.tag == "DECIDE"}
        assert decided == {(0, ("v0",)), (1, ("v1", "v2"))}
        assert len(wire) == 2 * 12

    def test_a_slot_costs_24_datagrams_and_its_leader_4_receipts_while_every_learner_relays(self, wire):
        with relaying():
            per_tag, leader_receipts = self.ledger(wire)
        assert per_tag == {"ACCEPT": 4, "ACCEPTED": 4, "DECIDE": 16}
        assert leader_receipts == 4

    def test_one_value_a_slot_cost_24_and_4_per_append(self, wire):
        with relaying(), single_value_slots():
            per_tag, leader_receipts = self.ledger(wire)
        assert per_tag == {
            "ACCEPT": 4 * self.APPENDS,
            "ACCEPTED": 4 * self.APPENDS,
            "DECIDE": 16 * self.APPENDS,
        }
        assert leader_receipts == 4 * self.APPENDS

    def test_the_retired_pattern_cost_45_and_17(self, wire):
        with relaying(), single_value_slots(), flooding():
            per_tag, leader_receipts = self.ledger(wire)
        assert per_tag == {
            "PREPARE": 5 * self.APPENDS,
            "PROMISE": 5 * self.APPENDS,
            "ACCEPT": 5 * self.APPENDS,
            "ACCEPTED": 5 * self.APPENDS,
            "DECIDE": 25 * self.APPENDS,
        }
        assert leader_receipts == 17 * self.APPENDS


def retired_goldens(name):
    path = os.path.join(os.path.dirname(__file__), name)
    with open(path, encoding="utf-8") as fh:
        retired = json.load(fh)
    assert len(retired) == 20
    return retired


def assert_goldens_reproduce(retired):
    for key, run in kernel_scenarios():
        if key in retired:
            kernel = run(scan=True)
            assert retired.pop(key) == {
                "outputs": canonical_hash(kernel_fingerprint(kernel)),
                "steps": sum(kernel.steps_taken.values()),
            }, key
    assert not retired


class TestTheOraclesAreTheParents:
    """Under the oracles, what earlier commits pinned comes back byte for byte.

    The row pins were re-recorded through the oracles twice: when
    ``row_digest`` stopped covering a row's ``spec`` and ``spec_hash``,
    and when rows lost ``trace.interleaving``.
    """

    def test_relaying_reproduces_the_pr22_goldens(self):
        with relaying():
            assert_goldens_reproduce(retired_goldens("replog3_pr22.json"))

    @pytest.mark.parametrize(
        "label, retired",
        [
            ("disjoint-kernel-event", "3036534480a18dec31b1f1662b91ae043266310bc1ce2a268efe376d2b49ed43"),
            ("disjoint-kernel-faulted", "97d75a6911aa426d98e8755eeec748aa810a7842f20886de538d8b3904043c46"),
        ],
    )
    def test_relaying_reproduces_the_pr22_row_pins(self, label, retired):
        with relaying():
            assert pipeline_rows.row_digest(pipeline_rows.SPECS[label]) == retired

    def test_single_value_slots_reproduce_the_pr20_goldens(self):
        with relaying(), single_value_slots():
            assert_goldens_reproduce(retired_goldens("replog3_pr20.json"))

    def test_single_value_slots_reproduce_the_pr20_row_pin(self):
        retired = "0f30ec1ffcb1ed17495cf6d42b5628d0d968de002d9106b8f8e0f4a032785276"
        spec = pipeline_rows.SPECS["disjoint-kernel-faulted"]
        with relaying(), single_value_slots():
            assert pipeline_rows.row_digest(spec) == retired


@pytest.mark.parametrize("label", ["disjoint-kernel-event", "disjoint-kernel-faulted"])
def test_the_oracle_is_the_parents_protocol(label):
    """Under all three oracles the kernel row pins recorded before PR 20 come
    back (re-recorded like the class above)."""
    retired = {
        "disjoint-kernel-event": "a0dfac95074a11b273358fd274cb20766a4465c5d480bbc55fdbbbe01a0170a9",
        "disjoint-kernel-faulted": "eb6d5a015b889a43186535cc68ad497ee3c0e49dfddfa3e611dcb2bd73d854c2",
    }
    with relaying(), single_value_slots(), flooding():
        assert pipeline_rows.row_digest(pipeline_rows.SPECS[label]) == retired[label]


# -- (B) DECIDE goes decider -> others; Omega carries the relay ---------------


class TestRelay:
    """``RelayLtl``: once one correct process has the decision, all do."""

    @pytest.mark.parametrize("size", [3, 5])
    @pytest.mark.parametrize("seed", range(10))
    def test_the_decider_crashes_while_its_decides_are_in_flight(self, size, seed):
        procs = make_processes(size)
        scope = pset(procs)
        leader, second = procs[0], procs[1]
        appends = [(leader, "a"), (second, "b")]
        _, reference = run_log(scope, appends, seed=seed)
        decided_at = reference.outputs[leader][0][0]
        for crash_at in range(decided_at - 1, decided_at + size + 2):
            pattern = crash_pattern(scope, {leader: crash_at})
            cluster, kernel = run_log(scope, appends, seed=seed, pattern=pattern)
            sequences = {tuple(cluster.automata[p].applied) for p in pattern.correct}
            assert len(sequences) == 1, (crash_at, sequences)
            (sequence,) = sequences
            # Uniform agreement: what the dead leader applied is a prefix.
            dead = tuple(cluster.automata[leader].applied)
            assert sequence[: len(dead)] == dead
            assert "b" in sequence and set(sequence) <= {"a", "b"}
            assert not any(kernel.buffer._pending.values()) and not kernel.buffer._delayed

    @pytest.mark.parametrize("size", [3, 5])
    @pytest.mark.parametrize("seed", range(10))
    def test_one_member_received_it_and_the_decider_is_gone(self, size, seed):
        # Without timeouts the property needs ``Omega``: the dead
        # decider's output moves to a correct member, who has the
        # decision and is asked for it, or has not and takes the slot over.
        for sole_recipient in range(1, size):
            for successor in range(1, size):
                bench = Bench(size, automaton=ReplicatedLogAutomaton)
                leader, others = bench.procs[0], list(bench.procs[1:])
                bench.automata[leader].append("v")
                order = random.Random(seed)
                while not bench.automata[leader].applied:
                    p = order.choice(bench.procs)
                    bench.step(p)
                # The leader's deciding step just ended: its DECIDEs are in
                # the buffer and nobody has read one.  It crashed mid-
                # broadcast — only one copy ever left.
                decides = bench.pending("DECIDE")
                assert {d.src for d in decides} == {leader}
                assert {d.dst for d in decides} >= set(others)
                # The other copies are lost in transit: no buffer call
                # drops one given datagram, so take it from the queue.
                for d in decides:
                    if d.dst != bench.procs[sole_recipient]:
                        bench.buffer._pending[d.dst].remove(d)
                bench.leader, bench.quorum = bench.procs[successor], pset(others)
                order.shuffle(others)
                for p in others:
                    bench.step(p)  # the step that samples the new output
                bench.drain(others, order)
                assert [bench.automata[p].applied for p in others] == [["v"]] * len(others)

    @pytest.mark.parametrize("victim", [4, 5])
    @pytest.mark.parametrize("start", [2, 3, 4, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_catchup_after_crash_recover_converges(self, victim, start, seed):
        # g2 = {4, 5, 6}: its leader (4) or a follower (5) is down while
        # the slot decides and rejoins into a group that is already done.
        plan = FaultPlan(
            (FaultEvent(kind="crash_recover", start=start, until=start + 6, targets=(victim,)),)
        )
        sends = (Send(1, "g1", 0), Send(4, "g2", 0), Send(6, "g2", 1))
        result = run_scenario(kernel_spec(3, sends, groups=2, seed=seed, faults=plan))
        assert_run_ok(result.record)
        assert result.delivered_everywhere() and not result.truncated


# -- (C) the lowest ballot skips phase 1 --------------------------------------


def announcements(wire, tag, src=None):
    """Distinct ``(src, ballot)`` announcements of ``tag``, in send order."""
    seen = []
    for d in wire:
        key = (d.src, d.body[0])
        if d.tag == tag and (src is None or d.src == src) and key not in seen:
            seen.append(key)
    return seen


class TestLowestBallot:
    def test_the_minimal_leader_goes_straight_to_accept(self, wire):
        bench = Bench(3)
        p1, p2, p3 = bench.procs
        bench.automata[p1].propose("v")
        bench.step(p1)
        assert [(d.dst, d.tag, d.body) for d in wire] == [
            (p2, "ACCEPT", ((1, 1), "v")),
            (p3, "ACCEPT", ((1, 1), "v")),
        ]
        # Its own acceptor took the ACCEPT in that very step.
        own = bench.automata[p1]
        assert own.promised == own.accepted_ballot == (1, 1)
        assert own.accepted_value == "v" and own._accepts == {p1}
        bench.drain(bench.procs)
        assert {a.decision for a in bench.automata.values()} == {"v"}
        assert not [d for d in wire if d.tag in ("PREPARE", "PROMISE")]

    def test_a_non_minimal_leader_prepares(self, wire):
        bench = Bench(3, leader=1)
        p1, p2, p3 = bench.procs
        bench.automata[p2].propose("v")
        bench.step(p2)
        assert [(d.dst, d.tag, d.body) for d in wire] == [
            (p1, "PREPARE", ((1, 2),)),
            (p3, "PREPARE", ((1, 2),)),
        ]
        assert bench.automata[p2].promised == (1, 2)
        assert set(bench.automata[p2]._promises) == {p2}
        bench.drain(bench.procs)
        assert {a.decision for a in bench.automata.values()} == {"v"}

    def test_a_re_elected_minimal_leader_prepares(self, wire):
        bench = Bench(3)
        p1, p2, _ = bench.procs
        bench.automata[p1].propose("v")
        bench.step(p1)  # ACCEPT (1, 1)
        bench.leader = p2
        bench.step(p1)  # demoted
        bench.leader = p1
        bench.drain(bench.procs)
        bench.step(p1)
        bench.drain(bench.procs)
        assert announcements(wire, "ACCEPT", src=p1) == [(p1, (1, 1)), (p1, (2, 1))]
        assert announcements(wire, "PREPARE", src=p1) == [(p1, (2, 1))]
        assert {a.decision for a in bench.automata.values()} == {"v"}

    def test_a_nacked_first_ballot_falls_back_to_a_full_phase_1(self, wire):
        bench = Bench(3)
        p1, p2, p3 = bench.procs
        # p3 promised (1, 2) to a p2 that briefly thought it led.
        bench.buffer.send(p2, p3, "PREPARE", ((1, 2),))
        bench.step(p3)
        bench.automata[p1].propose("v")
        bench.step(p1)
        bench.drain(bench.procs)
        bench.step(p1)
        bench.drain(bench.procs)
        assert [d.src for d in wire if d.tag == "NACK"] == [p3]
        assert announcements(wire, "ACCEPT", src=p1) == [(p1, (1, 1)), (p1, (2, 1))]
        assert announcements(wire, "PREPARE", src=p1) == [(p1, (2, 1))]
        assert {a.decision for a in bench.automata.values()} == {"v"}

    def test_a_higher_own_promise_refuses_the_lowest_ballot_in_place(self, wire):
        bench = Bench(3)
        p1, p2, _ = bench.procs
        bench.buffer.send(p2, p1, "PREPARE", ((1, 2),))
        bench.automata[p1].propose("v")
        bench.step(p1)  # promises (1, 2), then forms (1, 1): own NACK
        own = bench.automata[p1]
        assert own.promised == (1, 2) and own.accepted_value is None
        assert own._phase is None
        assert not [d for d in wire if d.tag == "NACK"]  # handled in place
        bench.step(p1)
        assert announcements(wire, "PREPARE", src=p1) == [(p1, (2, 1))]

    def test_a_restored_proposer_never_reuses_the_lowest_ballot(self, wire):
        bench = Bench(3)
        p1 = bench.procs[0]
        bench.automata[p1].propose("v")
        bench.step(p1)  # ACCEPT (1, 1), then the crash
        rejoined = ConsensusAutomaton(p1, bench.scope)
        rejoined.restore(bench.automata[p1].snapshot())
        bench.automata[p1] = rejoined
        bench.step(p1)
        bench.drain(bench.procs)
        bench.step(p1)
        bench.drain(bench.procs)
        assert announcements(wire, "ACCEPT", src=p1) == [(p1, (1, 1)), (p1, (2, 1))]
        assert announcements(wire, "PREPARE", src=p1) == [(p1, (2, 1))]
        assert {a.decision for a in bench.automata.values()} == {"v"}

    def test_a_proposer_restored_before_any_ballot_may_still_claim_it(self, wire):
        bench = Bench(3)
        p1 = bench.procs[0]
        bench.automata[p1].propose("v")
        rejoined = ConsensusAutomaton(p1, bench.scope)
        rejoined.restore(bench.automata[p1].snapshot())
        bench.automata[p1] = rejoined
        bench.step(p1)
        assert announcements(wire, "ACCEPT") == [(p1, (1, 1))]
        assert not announcements(wire, "PREPARE")


def assert_phase_1_discipline(wire, lowest_by_src):
    """Per slot: an ACCEPT follows its own PREPARE, except the lowest
    ballot's, which only ``min(scope)`` sends and with a single value."""
    prepared = set()
    exempt = {}
    for d in wire:
        if d.tag == "PREPARE":
            prepared.add((d.src, d.body[0], d.body[1]))
        elif d.tag == "ACCEPT":
            slot, ballot, value = d.body
            if (d.src, slot, ballot) in prepared:
                continue
            assert ballot == lowest_by_src.get(d.src), d
            assert exempt.setdefault((d.src, slot), value) == value, d


# -- The shipped protocol next to the retired one -----------------------------


def fault_events(size):
    index = st.integers(min_value=1, max_value=size)
    start = st.integers(min_value=0, max_value=14)
    length = st.integers(min_value=1, max_value=10)
    return st.one_of(
        st.builds(
            lambda i, t: FaultEvent(kind="crash_burst", start=t, targets=(i,)),
            index, start,
        ),
        st.builds(
            lambda i, t, n: FaultEvent(
                kind="crash_recover", start=t, until=t + n, targets=(i,)
            ),
            index, start, length,
        ),
        st.builds(
            lambda t: FaultEvent(kind="omega_late", group="g1", until=t + 1),
            start,
        ),
        st.builds(
            lambda s, d, t, n, k: FaultEvent(
                kind="link_drop", src=s, dst=d, start=t, until=t + n, amount=k
            ),
            st.none() | index, st.none() | index, start, length,
            st.integers(min_value=1, max_value=6),
        ),
    )


@st.composite
def faulted_cells(draw):
    size = draw(st.sampled_from([3, 5]))
    # At most one crash event per process, so the plan stays admissible.
    events = draw(
        st.lists(
            fault_events(size),
            min_size=1,
            max_size=3,
            unique_by=lambda e: e.targets or object(),
        )
    )
    senders = draw(
        st.lists(st.integers(min_value=1, max_value=size), min_size=1, max_size=3)
    )
    sends = tuple(Send(p, "g1", at) for at, p in enumerate(senders))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return size, kernel_spec(size, sends, seed=seed, faults=FaultPlan(tuple(events)))


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(cell=faulted_cells())
def test_safe_and_as_live_as_the_retired_protocol(wire, cell):
    size, spec = cell
    del wire[:]
    result = run_scenario(spec)
    row = result.to_row()
    # Agreement (one order at every member) and validity (only what was
    # multicast is delivered, once): the §2.2 verdicts of the run.
    assert row["verdicts"]["ordering"] == 0
    assert row["verdicts"]["integrity"] == 0
    assert all(d.src != d.dst for d in wire)
    assert_phase_1_discipline(wire, {make_processes(size)[0]: (1, 1)})
    with relaying(), flooding():
        parent = run_scenario(spec)
    if parent.delivered_everywhere() and not parent.truncated:
        assert result.delivered_everywhere() and not result.truncated
        assert row["verdicts"]["termination"] == 0


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cell=faulted_cells())
def test_batched_slots_next_to_single_value_slots(cell):
    _, spec = cell
    result = run_scenario(spec)
    logs = result.host.automata
    longest = max((log.applied for log in logs.values()), key=len)
    for p, log in logs.items():
        # At most once, one order, and the batches are where it came from.
        assert len(set(log.applied)) == len(log.applied)
        assert log.applied == longest[: len(log.applied)]
        flat = [v for batch in log.snapshot()["batches"] for v in batch]
        assert list(dict.fromkeys(flat)) == log.applied
        # Per-origin FIFO: a sender's ids are minted in append order.
        own = [mid for mid in log.applied if mid.sender_index == p.index]
        assert own == sorted(own)
    with relaying(), single_value_slots():
        parent = run_scenario(spec)
    if parent.delivered_everywhere():
        assert result.delivered_everywhere()
        for p in result.record.pattern.correct:
            assert set(logs[p].applied) == set(parent.host.automata[p].applied)
