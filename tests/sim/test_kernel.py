"""Tests for the step-level simulation kernel (Appendix A semantics)."""

import pytest

from repro.detectors.base import FailureDetector
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.sim.kernel import Automaton, Kernel
from repro.substrates.consensus import ConsensusAutomaton, OmegaSigmaSampler
from repro.substrates.replicated_log import ReplicatedLogCluster
from tests.runtime._oracle import force_scan

PROCS = make_processes(3)
ALL = pset(PROCS)


class Echo(Automaton):
    """Replies PONG to every PING; counts everything it sees."""

    def __init__(self):
        self.seen = []
        self.started = False

    def on_start(self, ctx):
        self.started = True

    def on_step(self, ctx, datagram):
        if datagram is None:
            return
        self.seen.append(datagram.tag)
        if datagram.tag == "PING":
            ctx.send(datagram.src, "PONG")
        ctx.output(datagram.tag)


class Chatter(Automaton):
    """Broadcasts PING once, then idles."""

    def __init__(self, peers):
        self.peers = peers
        self.sent = False

    def on_step(self, ctx, datagram):
        if not self.sent:
            self.sent = True
            ctx.broadcast(self.peers, "PING")


def build(pattern=None, seed=0):
    pattern = pattern or failure_free(ALL)
    automata = {
        PROCS[0]: Chatter([PROCS[1], PROCS[2]]),
        PROCS[1]: Echo(),
        PROCS[2]: Echo(),
    }
    return automata, Kernel(pattern, automata, seed=seed)


class TestStepSemantics:
    def test_on_start_called_once(self):
        automata, kernel = build()
        kernel.round()
        kernel.round()
        assert automata[PROCS[1]].started

    def test_messages_flow_and_replies_return(self):
        automata, kernel = build()
        kernel.run(6)
        assert automata[PROCS[1]].seen == ["PING"]
        assert automata[PROCS[2]].seen == ["PING"]
        # The chatter got both PONGs (consumed silently).
        assert not any(kernel.buffer._pending.values()) and not kernel.buffer._delayed

    def test_outputs_are_recorded_with_time(self):
        automata, kernel = build()
        kernel.run(6)
        assert [value for _, value in kernel.outputs[PROCS[1]]] == ["PING"]

    def test_crashed_process_takes_no_step(self):
        pattern = crash_pattern(ALL, {PROCS[1]: 1})
        automata, kernel = build(pattern)
        kernel.run(6)
        assert kernel.steps_taken[PROCS[1]] == 0
        with pytest.raises(SimulationError):
            kernel.step_process(PROCS[1])

    def test_pending_messages_of_crashed_processes_are_dropped(self):
        pattern = crash_pattern(ALL, {PROCS[1]: 1})
        automata, kernel = build(pattern)
        kernel.run(6)
        # The PING addressed to the dead p2 was dropped, not delivered.
        assert automata[PROCS[1]].seen == []

    def test_participation_restricts_stepping(self):
        automata, kernel = build()
        kernel.run(4, participation=pset({PROCS[0]}))
        assert kernel.steps_taken[PROCS[0]] == 4
        assert kernel.steps_taken[PROCS[1]] == 0

    def test_round_fairness_schedules_every_alive_process(self):
        automata, kernel = build()
        stepped = kernel.round()
        assert stepped == 3

    def test_stop_when_predicate_halts_early(self):
        automata, kernel = build()
        rounds = kernel.run(
            100, stop_when=lambda: bool(automata[PROCS[1]].seen)
        )
        assert rounds < 100

    def test_total_messages_counter(self):
        automata, kernel = build()
        kernel.run(6)
        assert kernel.buffer.sent_count == 4  # 2 PINGs + 2 PONGs

    def test_same_seed_is_deterministic(self):
        def trace(seed):
            automata, kernel = build(seed=seed)
            kernel.run(6)
            return kernel.outputs

        assert str(trace(9)) == str(trace(9))


class QuietEcho(Echo):
    """An Echo that declares itself purely message-driven."""

    def idle(self):
        return True


class QuietChatter(Chatter):
    def idle(self):
        return self.sent


def build_quiet(seed=0):
    automata = {
        PROCS[0]: QuietChatter([PROCS[1], PROCS[2]]),
        PROCS[1]: QuietEcho(),
        PROCS[2]: QuietEcho(),
    }
    return automata, Kernel(failure_free(ALL), automata, seed=seed)


class TestEventDrivenKernel:
    def test_idle_skip_preserves_outputs(self):
        # The step-everyone reference is the scan oracle, not a mode.
        scan = force_scan(build_quiet(seed=9)[1])
        _, event = build_quiet(seed=9)
        # No quiescent_rounds: both run the full budget, idle or not.
        assert scan.run(6) == event.run(6) == 6
        assert str(scan.outputs) == str(event.outputs)
        assert scan.buffer.sent_count == event.buffer.sent_count

    def test_idle_skip_saves_steps(self):
        _, event = build_quiet(seed=9)
        event.run(6)
        summary = event.tracer.summary()
        assert summary["skipped"] > 0
        assert summary["scanned"] < summary["eligible"]
        # Once the chatter has sent and the echoes drained their
        # inboxes, whole rounds go by without a single step.
        assert sum(event.steps_taken.values()) < 3 * 6

    def test_default_automaton_is_never_skipped(self):
        automata, kernel = build(seed=9)
        kernel.run(6)
        # Echo/Chatter keep the conservative idle() == False default.
        assert all(count == 6 for count in kernel.steps_taken.values())

    def test_unstarted_process_is_always_stepped(self):
        _, event = build_quiet(seed=9)
        event.round()
        # Every process took its start step despite reporting idle.
        assert all(count == 1 for count in event.steps_taken.values())


def test_snapshot_hash_addresses_message_ids_by_their_fields():
    """The kernel backend replicates ``message.mid``, so durable-state
    snapshots hold bare ``MessageId``s — the one ``default=str`` site
    that does.  As tuples they encode as ``[sender, sequence]`` (not as
    their ``repr``): still a function of the durable state alone."""
    from repro.model.messages import MessageId
    from repro.sim.kernel import snapshot_hash

    snapshot = {"applied": [MessageId(1, 2)], "proposal": MessageId(2, 1)}
    assert snapshot_hash(snapshot) == snapshot_hash(
        {"applied": [[1, 2]], "proposal": [2, 1]}
    )
    assert snapshot_hash(snapshot) != snapshot_hash(
        {"applied": [MessageId(1, 3)], "proposal": MessageId(2, 1)}
    )


class ProposalDriven(ConsensusAutomaton):
    """A consensus member that parks while it has decided or has nothing
    to propose: a null step then runs ``_progress``, which returns at
    once."""

    def idle(self):
        return self.decision is not None or self.proposal is None


class SwitchAt(FailureDetector):
    """Answers ``"before"`` until ``at``, then ``"after"``, and lists
    ``at`` as its one change instant."""

    def __init__(self, at):
        super().__init__()
        self.at = at
        self.instants = [at]

    def query(self, p, t):
        return "before" if t < self.at else "after"


class Watcher(Automaton):
    """Outputs each new detector sample; a null step under the last one
    changes nothing."""

    def __init__(self):
        self.last = None

    def on_step(self, ctx, datagram):
        if ctx.detector != self.last:
            self.last = ctx.detector
            ctx.output(ctx.detector)

    def idle(self):
        return True


class TestAParkedAutomatonWakes:
    """A process the kernel proved parked is skipped without being asked
    until an event voids the proof.  A call made between two runs is
    such an event: after a quiescent run, the automaton it changed must
    step in the next one.  So is a change instant its detector lists."""

    def test_at_a_detector_change_instant(self):
        automata = {p: Watcher() for p in PROCS}
        kernel = Kernel(failure_free(ALL), automata, dict.fromkeys(PROCS, SwitchAt(10)))
        kernel.run(20)
        assert all(
            [value for _, value in kernel.outputs[p]] == ["before", "after"] for p in PROCS
        )
        # Proven parked from round 2 to 9 and from 11 on.
        assert all(count == 2 for count in kernel.steps_taken.values())

    def quiescent(self, kernel):
        kernel.run(40, quiescent_rounds=2)
        assert kernel.last_run_quiescent
        return dict(kernel.steps_taken)

    def test_an_append(self):
        pattern = failure_free(ALL)
        cluster = ReplicatedLogCluster(pattern, ALL)
        kernel = Kernel(pattern, cluster.automata, cluster.detectors, seed=1)
        before = self.quiescent(kernel)
        assert kernel._scheduler.proven_parked == set(PROCS)
        cluster.append(PROCS[2], "v")
        after = self.quiescent(kernel)
        assert after[PROCS[2]] > before[PROCS[2]]
        assert {tuple(cluster.automata[p].applied) for p in PROCS} == {("v",)}

    def test_a_proposal(self):
        pattern = failure_free(ALL)
        automata = {p: ProposalDriven(p, ALL) for p in PROCS}
        sampler = OmegaSigmaSampler.of(pattern, ALL)
        kernel = Kernel(pattern, automata, dict.fromkeys(PROCS, sampler), seed=1)
        before = self.quiescent(kernel)
        assert kernel._scheduler.proven_parked == set(PROCS)
        automata[PROCS[0]].propose("v")  # the Omega leader
        after = self.quiescent(kernel)
        assert after[PROCS[0]] > before[PROCS[0]]
        assert {automata[p].decision for p in PROCS} == {"v"}

    def test_a_rejoin(self):
        victim = PROCS[1]
        pattern = FailurePattern(ALL, {victim: 6}, {victim: 9})
        cluster = ReplicatedLogCluster(pattern, ALL)
        kernel = Kernel(pattern, cluster.automata, cluster.detectors, seed=1)
        before = self.quiescent(kernel)
        assert kernel.time < 6 and victim in kernel._scheduler.proven_parked
        kernel.run(10)  # through the crash and the rejoin: no early halt
        assert kernel.last_run_quiescent
        assert [p for _, p, _ in kernel.recoveries] == [victim]
        assert kernel.steps_taken[victim] == before[victim] + 1
        # Its first step back asks both peers for what it missed.
        assert kernel.buffer.sent_count == 2
