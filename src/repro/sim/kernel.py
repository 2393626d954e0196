"""The step-level simulation kernel (Appendix A).

This kernel executes protocol *automata* at the granularity of the formal
model: a step receives at most one datagram from the shared message
buffer, queries the local failure-detector module, updates local state and
sends datagrams.  Schedules are seeded-random with round-robin fairness
(every alive process is scheduled in every round), so the standard
well-formedness conditions hold: crashed processes take no steps and every
message addressed to a live process is eventually received.

The kernel hosts the genuine message-passing substrates of §4.3
(:mod:`repro.substrates`): ABD registers from ``Sigma``, adopt–commit from
``Sigma_{g∩h}`` and leader-driven consensus from ``Omega ∧ Sigma``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._content import content_hash
from repro.detectors.base import FailureDetector
from repro.metrics.trace import TraceRecorder
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, Time
from repro.model.messages import Datagram, MessageBuffer
from repro.model.processes import ProcessId, ProcessSet
from repro.runtime import AutomatonActor, RoundHost, Scheduler


class Context:
    """The per-step view an automaton gets of the world.

    Attributes:
        pid: the stepping process.
        time: the global time of this step.
        detector: the sample obtained from the local detector module.
    """

    __slots__ = ("pid", "time", "detector", "_buffer", "_outputs")

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
        self._buffer = buffer
        self._outputs = outputs

    def bind(
        self,
        pid: ProcessId,
        time: Time,
        detector: Any,
        outputs: List[Any],
    ) -> "Context":
        """Re-point this view at another step (kernel-internal reuse).

        Automata only use the context synchronously within one step, so
        the kernel keeps a single instance instead of allocating one per
        step.
        """
        self.pid = pid
        self.time = time
        self.detector = detector
        self._outputs = outputs
        return self

    def send(self, dst: ProcessId, tag: str, *body: Any) -> None:
        """Queue a datagram to ``dst``."""
        self._buffer.send(self.pid, dst, tag, tuple(body))

    def broadcast(self, dsts: Sequence[ProcessId], tag: str, *body: Any) -> None:
        """Queue one datagram per destination (including self if listed)."""
        self._buffer.broadcast(self.pid, dsts, tag, tuple(body))

    def output(self, value: Any) -> None:
        """Append to the process's output queue (OUT of Appendix A)."""
        self._outputs.append((self.time, value))


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
        quiescence.
        """
        return False


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
        detectors: Optional[Dict[ProcessId, FailureDetector]] = None,
        seed: int = 0,
        injector: Optional[Any] = None,
    ) -> None:
        self.pattern = pattern
        self.automata = dict(automata)
        #: Optional :class:`repro.faults.FaultInjector` — link faults run
        #: through the buffer, detector noise through wrapped modules,
        #: churn through the scheduler.  ``None`` (the default) keeps
        #: every code path byte-identical to the fault-free kernel.
        self.injector = injector
        self.detectors = detectors or {}
        if injector is not None:
            self.detectors = {
                p: injector.wrap_detector(d) for p, d in self.detectors.items()
            }
        self.buffer = MessageBuffer(injector)
        self.outputs: Dict[ProcessId, List[Tuple[Time, Any]]] = {
            p: [] for p in automata
        }
        self.steps_taken: Dict[ProcessId, int] = {p: 0 for p in automata}
        self._started: set = set()
        #: The detector sample each process took its last step under.
        self._sampled: Dict[ProcessId, Any] = {}
        #: Reusable per-step context view (see :meth:`Context.bind`).
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
        super().__init__(
            scheduler=Scheduler(
                {p: AutomatonActor(self, p) for p in sorted(self.automata)},
                rng=random.Random(seed),
                tracer=TraceRecorder(),
                is_alive=pattern.is_alive,
                pre_round=self._pre_round if injector is not None else self._drop_crashed,
                settle_horizon=(lambda: injector.horizon) if injector is not None else None,
                injector=injector,
                pending_work=(
                    self.buffer.delayed_count if injector is not None else None
                ),
                alive_instants=pattern.change_instants(),
            )
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
        will ever drain, distorting ``in_transit()`` and the
        delay-heap-aware quiescence check.
        """
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
        sample = self._sampled[p] = detector.query(p, t) if detector else None
        ctx = self._ctx.bind(p, t, sample, self.outputs[p])
        automaton = self.automata[p]
        if p not in self._started:
            self._started.add(p)
            automaton.on_start(ctx)
        datagram = self.buffer.receive(p)
        automaton.on_step(ctx, datagram)
        self.steps_taken[p] += 1

    def round(self, participation: Optional[ProcessSet] = None) -> int:
        """One fair round: every eligible alive process takes one step,
        in seeded-random order (:meth:`repro.runtime.Scheduler.round`).

        Datagrams addressed to processes crashed by now are dropped
        (they will never receive).  What is skipped and what counts as
        *productive* — the return value — is
        :class:`repro.runtime.AutomatonActor`'s rule.
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
        same semantics as :meth:`repro.core.MulticastSystem.run` — and
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

    # -- Introspection -------------------------------------------------------------

    def outputs_of(self, p: ProcessId) -> Tuple[Any, ...]:
        return tuple(value for _, value in self.outputs[p])

    def total_messages(self) -> int:
        return self.buffer.sent_count
