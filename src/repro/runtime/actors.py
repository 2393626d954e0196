"""Actor adapters: how each execution host plugs into the Scheduler.

Three adapters cover every loop in the repo:

* :class:`SharedObjectActor` — one Algorithm 1 process (plus its
  auxiliary components) inside a :class:`repro.core.engine.MulticastSystem`;
  a fire that leaves it at its fixpoint parks it until a write wakes it.
* :class:`AutomatonActor` — one Appendix-A automaton inside a
  :class:`repro.sim.kernel.Kernel`; parking is driven by the automaton's
  :meth:`~repro.sim.kernel.Automaton.idle` declaration, the message
  buffer's pending queue and the detector sample of its last step.
* :class:`SystemActor` — a whole subsystem as a single actor (the
  baselines and the §5/§6 emulation drivers, which advance an entire
  deployment per round and have no per-process schedule of their own).

The first two keep a verdict of parked in the scheduler's
``proven_parked`` set until an event voids it.

:class:`RoundHost` is the one base of every host: it owns the scheduler
the actors run under.

The adapters deliberately hold a back-reference to their host instead of
copying its state: the parked set, the started set and the message buffer
are live, shared structures, and the host's public mutators
(``wake_all``, ``multicast``, ``step_process``) must keep affecting the
very objects the actors consult.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Set, Tuple

from repro.metrics.trace import WAIT_IDLE, TraceRecorder
from repro.model.failures import Time
from repro.model.processes import ProcessId
from repro.runtime.scheduler import Actor, Scheduler


class SharedObjectActor(Actor):
    """One Algorithm 1 process + components, parked in the scheduler's set.

    A process is parked while it is in ``proven_parked``: its last fire
    left it at its fixpoint and no shared object it reads has been
    written since (see :class:`repro.objects.space.Sink`).
    The round and the async driver skip it with that one lookup; the
    adapter has no :meth:`parked` test of its own.  The engine records
    no wait reason for skipped processes (``SKIP_WAIT = ()``) — only
    scanned-but-blocked processes are histogrammed.

    A fire runs the system's components (the Prop 1 helper), then the
    action scan, which runs to its own fixpoint
    (:meth:`repro.core.algorithm1.Algorithm1Process.try_actions`).
    Unbudgeted, the two keep taking turns while each moves something: a
    scan that fired lets the helper push again, and a helper pass that
    appended to ``LOG_g`` gets another scan.  The fire then ends at the
    process's fixpoint, so it parks the process whatever it fired.  A
    budgeted fire is one component pass and one budgeted scan, and parks
    the process only when it fired nothing.
    """

    def __init__(self, system, pid: ProcessId) -> None:
        self._system = system
        self._pid = pid
        self._process = system.processes[pid]

    def fire(
        self,
        t: Time,
        budget: Optional[int] = None,
        parked: Optional[bool] = None,
    ) -> int:
        system, pid = self._system, self._pid
        system.fresh_verdicts()
        components = system._components
        process = self._process
        fired = 0
        for component in components:
            fired += component(pid, t)
        scanned = process.try_actions(t, budget=budget)
        fired += scanned
        # Unbudgeted, the scan and the components take turns while the
        # helper appends: a scan that delivered L_g[i] lets the Prop 1
        # helper push L_g[i+1] in this step, not the next round, and only
        # an append can enable an action the scan's fixpoint left off.
        # Each (pid, mid) is pushed at most once, so the turns end.
        while scanned and components and budget is None:
            pushed = 0
            for component in components:
                pushed += component(pid, t)
            if not pushed:
                break
            scanned = process.try_actions(t)
            fired += pushed + scanned
        if fired and budget is not None:
            # A budget may have cut the scan short: its next action may
            # already be enabled without any further shared-object write.
            system._parked.discard(pid)
        else:
            system._parked.add(pid)
        return fired

    def wait_reasons(self) -> Iterable[str]:
        return self._process.wait_reasons or {WAIT_IDLE}


class AutomatonActor(Actor):
    """One Appendix-A automaton, parked while it only waits.

    A started process with an empty inbox, whose automaton reports idle
    and whose detector module answers what it answered at the process's
    last step, may be skipped: its step would receive the null message
    under the very sample :meth:`~repro.sim.kernel.Automaton.idle`
    speaks of and, by the automaton's own declaration, change nothing.
    A datagram or a moved detector output is what wakes it.  The same
    test defines *productivity* — :meth:`fire` always takes the step
    (fair rounds step everyone on a full scan) but returns 0 when the
    step was declared changeless beforehand, so quiescence detection
    sees through no-op steps.  Skipped automata are accounted as idle
    waits, matching the event-driven kernel's accounting.

    A verdict of parked is memoised in :attr:`proven_parked` (the
    scheduler's set, bound by the kernel): the detector is a
    :class:`~repro.detectors.base.Timeline`, constant between its change
    ``instants``, so the verdict stands until mail reaches the process,
    a client call changes its automaton, it rejoins, or the clock
    reaches one of those instants, and the kernel removes it on each.
    """

    SKIP_WAIT: Tuple[str, ...] = (WAIT_IDLE,)
    #: Where a parked verdict is memoised: the scheduler's set, which the
    #: kernel binds once its scheduler exists.
    proven_parked: Set[ProcessId]

    def __init__(self, kernel, pid: ProcessId) -> None:
        self._kernel = kernel
        self._pid = pid
        # Live references (the kernel never rebinds these attributes);
        # resolving them per parked() call showed up in profiles.
        self._automaton = kernel.automata[pid]
        #: The process's own queue in the kernel's buffer: an empty inbox
        #: is one truth test, not a buffer call.
        self._inbox = kernel.buffer.inbox(pid)
        self._detector = kernel.detectors.get(pid)

    def parked(self, t: Time) -> bool:
        pid = self._pid
        if (
            pid in self._kernel._started
            and not self._inbox
            and self._automaton.idle()
            and (
                self._detector is None
                or self._detector.query(pid, t) == self._kernel._sampled[pid]
            )
        ):
            self.proven_parked.add(pid)
            return True
        return False

    def fire(
        self,
        t: Time,
        budget: Optional[int] = None,
        parked: Optional[bool] = None,
    ) -> int:
        kernel, pid = self._kernel, self._pid
        if parked is None:
            # A full scan never asked.  The step samples the module
            # itself: judging it against the sample before costs no query.
            parked = (
                pid in kernel._started
                and not self._inbox
                and self._automaton.idle()
            )
            before = kernel._sampled.get(pid)
            kernel.step_process(pid)
            parked = parked and kernel._sampled[pid] == before
        else:
            kernel.step_process(pid)
        return 0 if parked else 1

    def wait_reasons(self) -> Iterable[str]:
        return (WAIT_IDLE,)


class SystemActor(Actor):
    """A whole subsystem as one always-eligible actor.

    Wraps a ``fire(t) -> int`` callable that advances the entire
    deployment by one round and reports how many actions it fired.
    """

    def __init__(self, advance: Callable[[Time], int]) -> None:
        self._advance = advance

    def fire(
        self,
        t: Time,
        budget: Optional[int] = None,
        parked: Optional[bool] = None,
    ) -> int:
        return self._advance(t)

    def wait_reasons(self) -> Iterable[str]:
        return (WAIT_IDLE,)


class RoundHost:
    """The host protocol: what a driver of rounds may ask of a host.

    A per-process host (:class:`repro.core.engine.MulticastSystem`,
    :class:`repro.sim.kernel.Kernel`) hands in the scheduler it built over one
    actor per process and keeps its own ``tick`` / ``round`` / ``run``.
    A *whole-system* host — the baselines and the §5/§6 extractions,
    which advance an entire deployment per round — hands in none: it is
    one :class:`SystemActor` firing :meth:`_advance`, which does the
    crash filtering itself (per member, partition or instance), so the
    actor is always eligible.
    """

    def __init__(
        self, seed: int = 0, scheduler: Optional[Scheduler] = None
    ) -> None:
        self._scheduler = scheduler or Scheduler(
            {type(self).__name__: SystemActor(self._advance)},
            seed,
            TraceRecorder(),
        )
        self.tracer = self._scheduler.tracer

    def _advance(self, t: Time) -> int:
        """One round of a whole-system host; returns the actions fired."""
        raise NotImplementedError

    @property
    def time(self) -> Time:
        """The global round clock (owned by the scheduler)."""
        return self._scheduler.time

    @property
    def last_run_quiescent(self) -> bool:
        """Whether the most recent :meth:`run` ended in quiescence, not
        by its budget or ``stop_when``.  True before any run."""
        return self._scheduler.last_run_quiescent

    def settle_horizon(self) -> Time:
        """A time by which all detector outputs have stabilized."""
        return self._scheduler.settle_horizon

    def tick(self) -> int:
        """One round; returns the productive actions fired."""
        return self._scheduler.round()

    def run(
        self,
        max_rounds: int = 200,
        quiescent_rounds: int = 2,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until ``quiescent_rounds`` consecutive idle rounds, the
        ``max_rounds`` budget or ``stop_when``; returns the rounds
        executed."""
        return self._scheduler.run(
            max_rounds, quiescent_rounds=quiescent_rounds, stop_when=stop_when
        ).rounds
