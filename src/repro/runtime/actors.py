"""Actor adapters: how each execution host plugs into the Scheduler.

Three adapters cover every loop in the repo:

* :class:`SharedObjectActor` — one Algorithm 1 process (plus its
  auxiliary components) inside a :class:`repro.core.MulticastSystem`;
  parking is driven by the system's wake-index dirty set.
* :class:`AutomatonActor` — one Appendix-A automaton inside a
  :class:`repro.sim.Kernel`; parking is driven by the automaton's
  :meth:`~repro.sim.kernel.Automaton.idle` declaration, the message
  buffer's pending queue and the detector sample of its last step.
* :class:`SystemActor` — a whole subsystem as a single actor (the
  baselines and the §5/§6 emulation drivers, which advance an entire
  deployment per round and have no per-process schedule of their own).

:class:`RoundHost` is the one base of every host: it owns the scheduler
the actors run under.

The adapters deliberately hold a back-reference to their host instead of
copying its state: the dirty set, the started set and the message buffer
are live, shared structures, and the host's public mutators
(``wake_all``, ``multicast``, ``step_process``) must keep affecting the
very objects the actors consult.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Tuple

from repro.metrics.trace import WAIT_IDLE, TraceRecorder
from repro.model.failures import Time
from repro.model.processes import ProcessId
from repro.runtime.scheduler import Actor, Scheduler


class SharedObjectActor(Actor):
    """One Algorithm 1 process + components, parked via the dirty set.

    A process is parked when it is absent from the system's dirty set:
    its last scan fired nothing and no shared object it reads has been
    written since (see the wake index in :mod:`repro.core.engine`).
    The engine records no wait reason for skipped processes
    (``SKIP_WAIT = ()``) — only scanned-but-blocked processes are
    histogrammed.
    """

    def __init__(self, system, pid: ProcessId) -> None:
        self._system = system
        self._pid = pid
        self._process = system.processes[pid]

    def parked(self, t: Time) -> bool:
        return self._pid not in self._system._dirty

    def fire(
        self,
        t: Time,
        budget: Optional[int] = None,
        parked: Optional[bool] = None,
    ) -> int:
        system, pid = self._system, self._pid
        system._dirty.discard(pid)
        fired = 0
        for component in system._components:
            fired += component(pid, t)
        fired += self._process.try_actions(t, budget=budget)
        if fired:
            # Its own local state moved: its next action may already be
            # enabled without any further shared-object write.
            system._dirty.add(pid)
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
    """

    SKIP_WAIT: Tuple[str, ...] = (WAIT_IDLE,)

    def __init__(self, kernel, pid: ProcessId) -> None:
        self._kernel = kernel
        self._pid = pid
        # Live references (the kernel never rebinds these attributes);
        # resolving them per parked() call showed up in profiles.
        self._automaton = kernel.automata[pid]
        self._buffer = kernel.buffer
        self._detector = kernel.detectors.get(pid)

    def parked(self, t: Time) -> bool:
        pid = self._pid
        return (
            pid in self._kernel._started
            and not self._buffer.has_pending(pid)
            and self._automaton.idle()
            # By value: a wrapped module builds its sample per query.
            and (
                self._detector is None
                or self._detector.query(pid, t) == self._kernel._sampled[pid]
            )
        )

    def fire(
        self,
        t: Time,
        budget: Optional[int] = None,
        parked: Optional[bool] = None,
    ) -> int:
        kernel, pid = self._kernel, self._pid
        if parked is None:
            # A full scan never asked.  The step samples the module
            # itself, so judge it against the sample before: a second
            # query would double what a noisy module counts per step.
            parked = (
                pid in kernel._started
                and not self._buffer.has_pending(pid)
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

    A per-process host (:class:`repro.core.MulticastSystem`,
    :class:`repro.sim.Kernel`) hands in the scheduler it built over one
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
            rng=random.Random(seed),
            tracer=TraceRecorder(),
            is_alive=lambda _key, _t: True,
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
        return self._scheduler.settle_horizon()

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
