"""The step-level simulation kernel (Appendix A).

This kernel executes protocol *automata* at the granularity of the formal
model: a step receives at most one datagram from the shared message
buffer, queries the local failure-detector module, updates local state and
sends datagrams.  Schedules are seeded-random with round-robin fairness
(every alive process is scheduled in every round), so the standard
well-formedness conditions hold: crashed processes take no steps and every
message addressed to a live process is eventually received.

The kernel hosts the genuine message-passing substrates of §4.3
(:mod:`repro.substrates`): leader-driven consensus from ``Omega ∧ Sigma``
and the replicated log built from it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._content import content_hash
from repro.detectors.base import Timeline
from repro.metrics.trace import TraceRecorder
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, Time
from repro.model.messages import Datagram, MessageBuffer
from repro.model.processes import ProcessId, ProcessSet
from repro.runtime.actors import AutomatonActor, RoundHost
from repro.runtime.scheduler import Scheduler


class Context:
    """The per-step view an automaton gets of the world.

    The kernel keeps one instance and re-points it at each step: automata
    use it synchronously within the step.

    Attributes:
        pid: the stepping process.
        time: the global time of this step.
        detector: the sample obtained from the local detector module.
        buffer: the shared message buffer the step sends through.
        outputs: the stepping process's output queue (OUT of Appendix A),
            ``(time, value)`` entries.  A view that tags what an automaton
            sends or outputs (a replicated log's slot) writes through these
            two, not through a frame of this class.
    """

    __slots__ = ("pid", "time", "detector", "buffer", "outputs")

    def __init__(
        self,
        pid: ProcessId,
        time: Time,
        detector: Any,
        buffer: MessageBuffer,
        outputs: List[Any],
    ) -> None:
        self.pid = pid
        self.time = time
        self.detector = detector
        self.buffer = buffer
        self.outputs = outputs

    def send(self, dst: ProcessId, tag: str, *body: Any) -> None:
        """Queue a datagram to ``dst``."""
        self.buffer.send(self.pid, dst, tag, body)

    def broadcast(self, dsts: Sequence[ProcessId], tag: str, *body: Any) -> None:
        """Queue one datagram per destination (including self if listed)."""
        self.buffer.broadcast(self.pid, dsts, tag, body)

    def output(self, value: Any) -> None:
        """Append to the process's output queue (OUT of Appendix A)."""
        self.outputs.append((self.time, value))


def snapshot_hash(snapshot: Any) -> str:
    """Content address of a durable-state snapshot (sha256 hex).

    Snapshots are plain JSON-serializable dicts; the address is the
    hash of the canonical encoding, so two replicas with identical
    durable state produce identical addresses — the kernel's rejoin
    path records one per recovery for triage.
    """
    return content_hash(snapshot)


class Automaton:
    """Base class of protocol automata: one instance per process."""

    def on_start(self, ctx: Context) -> None:
        """Called once, on the process's first step."""

    def on_step(self, ctx: Context, datagram: Optional[Datagram]) -> None:
        """Called at every step with the received datagram (or null)."""
        raise NotImplementedError

    def idle(self) -> bool:
        """True when a step with no datagram, *under the detector sample
        of this automaton's last step*, cannot change it.

        The kernel skips a started process that is idle, has nothing
        pending in the buffer and whose detector module still answers
        that sample; a datagram or a moved detector output wakes it.  An
        automaton that acts on the clock (a timer, a throttle) is not
        idle while one is running.
        The default is conservative — ``False`` keeps every process
        stepping each round, which is always sound.  Automata that wait
        on mail and on their detector only may override this to report
        quiescence.  An automaton that does must call :meth:`wake` from
        every method that changes it between steps.
        """
        return False

    def wake(self) -> None:
        """Hook: a call from outside a step (a client call, a restore)
        changed this automaton.  Unhosted it does nothing; a
        :class:`Kernel` rebinds it at construction so that a process it
        proved parked takes its next step again."""


class Kernel(RoundHost):
    """Drives a set of automata over the shared message buffer.

    Attributes:
        pattern: the failure pattern; crashed processes stop stepping and
            their pending datagrams are dropped.
    """

    def __init__(
        self,
        pattern: FailurePattern,
        automata: Dict[ProcessId, Automaton],
        detectors: Optional[Dict[ProcessId, Timeline]] = None,
        seed: int = 0,
        injector: Optional[Any] = None,
    ) -> None:
        self.pattern = pattern
        self.automata = dict(automata)
        self.detectors = detectors or {}
        # An optional :class:`repro.faults.injector.FaultInjector` runs link faults
        # through the buffer and churn through the scheduler (detector
        # faults are in ``detectors``); ``None`` keeps every code path
        # byte-identical to the fault-free kernel.
        self.buffer = MessageBuffer(injector)
        self.outputs: Dict[ProcessId, List[Tuple[Time, Any]]] = {
            p: [] for p in automata
        }
        self.steps_taken: Dict[ProcessId, int] = {p: 0 for p in automata}
        self._started: set = set()
        #: The detector sample each process took its last step under.
        self._sampled: Dict[ProcessId, Any] = {}
        #: The one per-step context view, re-pointed at every step.
        self._ctx = Context(None, 0, None, self.buffer, [])
        #: Crash-time drop schedule: instead of sweeping every inbox each
        #: round, pending datagrams are dropped once when their owner's
        #: crash time arrives (and on any later round where new datagrams
        #: were addressed to an already-dead process).
        self._crash_schedule: List[Tuple[Time, ProcessId]] = sorted(
            (when, p)
            for p, when in pattern.crash_times.items()
            if p in self.automata
        )
        self._crash_cursor = 0
        self._dead: List[ProcessId] = []
        #: Crash–recovery overlay: rejoin schedule, durable snapshots
        #: taken at crash time, and a (when, process, snapshot hash)
        #: ledger of completed recoveries for triage rows.
        self._recover_schedule: List[Tuple[Time, ProcessId]] = sorted(
            (when, p)
            for p, when in pattern.recovery_times.items()
            if p in self.automata
        )
        self._recover_cursor = 0
        self._snapshots: Dict[ProcessId, Any] = {}
        self.recoveries: List[Tuple[Time, ProcessId, Optional[str]]] = []
        horizon = injector.horizon if injector is not None else 0
        super().__init__(
            scheduler=Scheduler(
                {p: AutomatonActor(self, p) for p in sorted(self.automata)},
                seed,
                TraceRecorder(),
                pattern,
                # Every round of the fault window is a full scan.
                scan_instants=range(1, horizon + 1),
                pre_round=self._pre_round if injector is not None else self._drop_crashed,
                injector=injector,
                pending_work=(
                    self.buffer.delayed_count if injector is not None else None
                ),
            )
        )
        # Parking proofs: the scheduler skips the processes in this set
        # unasked.  Mail (the buffer), a client call (``wake``), a rejoin
        # and a detector change (``_drop_crashed``) each void a proof.
        scheduler = self._scheduler
        proven = scheduler.proven_parked
        self.buffer.proven_parked = proven
        for p, automaton in self.automata.items():
            automaton.wake = partial(proven.discard, p)
            scheduler.actors[p].proven_parked = proven
        #: When a detector's answer may change.
        self._sample_instants = frozenset(
            t for detector in self.detectors.values() for t in detector.instants
        )

    def _pre_round(self, t: Time) -> None:
        """Faulted-run round prologue: release delayed datagrams, then
        drop the inboxes of crashed processes (in that order, so a
        datagram released to a dead destination is dropped the same
        round it lands)."""
        self.buffer.release(t)
        self._drop_crashed(t)

    def _drop_crashed(self, t: Time) -> None:
        """Drop pending datagrams of processes crashed by time ``t``.

        Replaces the former per-round every-inbox sweep: with zero
        crashes this is free, and with crashes it touches only the dead
        processes' inboxes (a message addressed to a dead process is
        still dropped at the start of the next round, exactly as
        before).  Datagrams a link fault is still sequestering for a
        dead destination are purged too — a delayed datagram to a
        crashed process would otherwise be released into a queue nobody
        will ever drain, so the buffer would never read as empty.

        It also voids parking proofs: all of them when ``t`` is one of
        the detectors' change instants, a process's own when it rejoins.
        """
        if t in self._sample_instants:
            self._scheduler.proven_parked.clear()
        schedule = self._crash_schedule
        while (
            self._crash_cursor < len(schedule)
            and schedule[self._crash_cursor][0] <= t
        ):
            p = schedule[self._crash_cursor][1]
            self._dead.append(p)
            if p in self.pattern.recovery_times:
                # The process will rejoin: capture its durable state
                # now (the state after its last alive step).  Automata
                # without a ``snapshot`` method are treated as fully
                # durable — the rejoin resumes their live state.
                snapshot = getattr(self.automata[p], "snapshot", None)
                if callable(snapshot):
                    self._snapshots[p] = snapshot()
            self._crash_cursor += 1
        rejoins = self._recover_schedule
        while (
            self._recover_cursor < len(rejoins)
            and rejoins[self._recover_cursor][0] <= t
        ):
            when, p = rejoins[self._recover_cursor]
            self._recover_cursor += 1
            self._scheduler.proven_parked.discard(p)
            if p in self._dead:
                self._dead.remove(p)
            snapshot = self._snapshots.pop(p, None)
            digest = None
            if snapshot is not None:
                restore = getattr(self.automata[p], "restore", None)
                if callable(restore):
                    restore(snapshot)
                digest = snapshot_hash(snapshot)
            self.recoveries.append((when, p, digest))
        for p in self._dead:
            if self.buffer.has_pending(p) or self.buffer.delayed_count():
                self.buffer.drop_all_for(p)

    # -- Stepping --------------------------------------------------------------

    def step_process(self, p: ProcessId) -> None:
        """Execute one step of ``p`` (receive, sample, transition)."""
        t = self._scheduler.time
        if not self.pattern.is_alive(p, t):
            raise SimulationError(f"{p} is crashed and cannot step")
        detector = self.detectors.get(p)
        ctx = self._ctx
        ctx.pid = p
        ctx.time = t
        ctx.detector = self._sampled[p] = (
            detector.query(p, t) if detector else None
        )
        ctx.outputs = self.outputs[p]
        automaton = self.automata[p]
        if p not in self._started:
            self._started.add(p)
            automaton.on_start(ctx)
        datagram = self.buffer.receive(p)
        automaton.on_step(ctx, datagram)
        self.steps_taken[p] += 1

    def round(self, participation: Optional[ProcessSet] = None) -> int:
        """One fair round: every eligible alive process takes one step,
        in seeded-random order (:meth:`repro.runtime.scheduler.Scheduler.round`).

        Datagrams addressed to processes crashed by now are dropped
        (they will never receive).  What is skipped and what counts as
        *productive* — the return value — is
        :class:`repro.runtime.actors.AutomatonActor`'s rule.
        """
        return self._scheduler.round(participation)

    def run(
        self,
        rounds: int,
        participation: Optional[ProcessSet] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        quiescent_rounds: Optional[int] = None,
    ) -> int:
        """Run up to ``rounds`` fair rounds; stop early on ``stop_when``.

        With ``quiescent_rounds`` set, the run additionally halts once
        that many consecutive rounds take zero productive steps — the
        same semantics as :meth:`repro.core.engine.MulticastSystem.run` — and
        :attr:`last_run_quiescent` reports whether it did.  Without it
        the full budget executes (the legacy contract) and the flag
        reports whether the run *ended* idle — ``False`` flags a run cut
        short mid-protocol.
        """
        outcome = self._scheduler.run(
            rounds,
            participation,
            quiescent_rounds=1 if quiescent_rounds is None else quiescent_rounds,
            stop_when=stop_when,
            halt_on_quiescence=quiescent_rounds is not None,
        )
        return outcome.rounds
