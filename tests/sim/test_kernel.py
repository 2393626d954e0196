"""Tests for the step-level simulation kernel (Appendix A semantics)."""

import pytest

from repro.model.errors import SimulationError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.sim.kernel import Automaton, Kernel
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
        assert kernel.buffer.in_transit() == 0

    def test_outputs_are_recorded_with_time(self):
        automata, kernel = build()
        kernel.run(6)
        assert kernel.outputs_of(PROCS[1]) == ("PING",)

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
        assert kernel.total_messages() == 4  # 2 PINGs + 2 PONGs

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
        assert scan.total_messages() == event.total_messages()

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
