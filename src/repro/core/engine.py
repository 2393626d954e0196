"""The round-based execution engine for Algorithm 1 and its variants.

The engine realizes the asynchronous model at the granularity the paper's
correctness argument uses: shared-object operations are linearizable, so a
run is a sequence of atomic actions (§4.4 "we reason directly upon the
linearization").  Each round advances the global clock by one, then lets
every live process scan its enabled actions, in a seeded random order — an
adversarially shuffled, yet reproducible, schedule.

Crash injection follows the run's :class:`repro.model.failures.FailurePattern`:
from its crash time on, a process takes no further step.  *Participation
sets* restrict which processes are scheduled at all; they express the
P-fair runs of §6.2 (group parallelism) and the emulation constructions of
§5 where entire group remainders take no step.

Scheduling
==========

The seed engine re-scanned every scheduled process each round, paying
O(processes × rounds) even when almost everyone was blocked on a quorum
or a ``gamma`` wait.  The engine is now *event-driven*: a process whose
scan fired nothing is parked until an event that can change its wait
condition —

* a write to a shared object it can read (its group logs, the
  intersection logs of its groups, its reduction lists ``L_g``), via a
  static *wake index* mapping object names to reader sets;
* a change of the participation/responder sets (quorum availability);
* a detector transition or a crash — conservatively covered by falling
  back to a full scan while ``time <= settle_horizon()``, the window in
  which gamma, the indicators and Omega may still move and processes may
  still crash.

The seeded random schedule is *unchanged*: the full eligible order is
shuffled exactly as before and parked processes are merely skipped, so
the RNG stream — and therefore the :class:`repro.model.runs.RunRecord` trace —
is byte-identical to the scan-everything engine (a skipped process would
have fired nothing and recorded nothing).  The seed loop itself is kept
as a test oracle (``tests/runtime/_oracle.py``) for differential
testing; the per-round counters land in :attr:`MulticastSystem.tracer`.

Caveat for auxiliary :data:`Component` sources: a component is re-run
only while its process is awake.  Components whose enabledness is driven
by shared-object state (like the Proposition 1 reduction) wake up with
their process; a component driven by state the wake index cannot see
must call :meth:`MulticastSystem.wake_all`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.algorithm1 import Algorithm1Process
from repro.detectors.indicator import IndicatorOracle
from repro.detectors.mu import Mu, build_mu
from repro.groups.topology import Group, GroupTopology
from repro.metrics.trace import TraceRecorder
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, Time
from repro.model.messages import MessageFactory, MulticastMessage
from repro.model.processes import ProcessId, ProcessSet
from repro.model.runs import RunRecord
from repro.objects.space import ObjectSpace
from repro.runtime.actors import RoundHost, SharedObjectActor
from repro.runtime.scheduler import Scheduler

#: An auxiliary per-process action source (e.g. the Prop. 1 reduction):
#: called as ``component(pid, t)`` and returns the number of actions fired.
Component = Callable[[ProcessId, Time], int]

__all__ = ["Component", "MulticastSystem"]


class MulticastSystem(RoundHost):
    """One deployment of Algorithm 1 over a topology and failure pattern.

    The ``multicast`` method is the *group-sequential* interface (the
    caller promises the §4.1 discipline: per group, a new message is
    multicast only by a sender that delivered the previous one).  The
    vanilla interface is :class:`repro.core.group_sequential.AtomicMulticast`.

    Attributes:
        topology: destination groups.
        pattern: the failure pattern of this run.
        record: the observable trace, consumed by the property checkers.
        tracer: per-round scheduling/stall counters (JSONL-exportable).
    """

    def __init__(
        self,
        topology: GroupTopology,
        pattern: FailurePattern,
        variant: str = "vanilla",
        mu: Optional[Mu] = None,
        indicator_lag: Time = 0,
        seed: int = 0,
        isolation: bool = False,
        injector: Optional[Any] = None,
    ) -> None:
        if pattern.processes != topology.processes:
            raise SimulationError("pattern and topology disagree on processes")
        self.topology = topology
        self.pattern = pattern
        self.variant = variant
        #: Optional :class:`repro.faults.injector.FaultInjector`.  The engine has
        #: no message buffer, so only churn (the scheduler filters on it)
        #: and the plan horizon reach it; detector faults are in ``mu``.
        #: ``None`` keeps every code path byte-identical to the fault-free
        #: engine.
        self.injector = injector
        self.record = RunRecord(topology.processes, pattern)
        tracer = TraceRecorder()
        #: Wake index: shared-object name -> processes that read it.
        self._wake_index: Dict[str, FrozenSet[ProcessId]] = (
            self._build_wake_index(topology)
        )
        #: Processes whose wait condition may have changed since their
        #: last clean (zero-fired) scan.  Starts as everyone.
        self._dirty: Set[ProcessId] = set(topology.processes)
        #: Optional observer of wake events, called with the processes
        #: just dirtied.  The async driver installs itself here to route
        #: wakes through latency-modelled channels; ``None`` (round
        #: execution) keeps the wake path untouched.
        self.wake_listener: Optional[Callable[[FrozenSet[ProcessId]], None]] = None
        self.space = ObjectSpace(
            self._charge,
            guard=self.quorum_ok,
            isolation=isolation,
            consensus_gate=self.consensus_ok,
            on_write=self._on_object_write,
        )
        #: The run's detector (the pattern oracles when not given).
        self.mu = build_mu(pattern, topology) if mu is None else mu
        self.indicators: Dict[FrozenSet[ProcessId], IndicatorOracle] = {}
        if variant == "strict":
            for g, h in topology.intersecting_pairs():
                shared = g.intersection(h)
                if shared not in self.indicators:
                    self.indicators[shared] = IndicatorOracle(
                        pattern, shared, detection_lag=indicator_lag
                    )
        self.factory = MessageFactory()
        self.processes: Dict[ProcessId, Algorithm1Process] = {
            p: Algorithm1Process(
                p,
                topology,
                self.space,
                self.mu,
                on_deliver=self._on_deliver,
                variant=variant,
                indicators=self.indicators,
                stats=tracer,
            )
            for p in sorted(topology.processes)
        }
        self._components: List[Component] = []
        # Last alive-set change: the final crash, or (under the
        # crash–recovery overlay) the final rejoin if later.
        last_change = max(pattern.change_instants(), default=0)
        # The time by which all detector outputs have stabilized: the
        # last crash plus the gamma and indicator detection lags, *and*
        # the Omega stabilization time — actions blocked on the §4.3
        # consensus construction only re-enable once the leader oracles
        # have settled (see :meth:`consensus_ok`).
        settle_time: Time = (
            max(
                last_change + self.mu.gamma.detection_lag + indicator_lag,
                self.mu.omega_settle_time(),
                injector.horizon if injector is not None else 0,
            )
            + 1
        )
        super().__init__(
            scheduler=Scheduler(
                {p: SharedObjectActor(self, p) for p in sorted(topology.processes)},
                seed,
                tracer,
                pattern,
                settle_horizon=settle_time,
                injector=injector,
            )
        )

    # -- Wiring ---------------------------------------------------------------

    @staticmethod
    def _build_wake_index(
        topology: GroupTopology,
    ) -> Dict[str, FrozenSet[ProcessId]]:
        """Map each shared-object name to the processes that read it.

        ``LOG_g`` and the reduction list ``L_g`` are read by the members
        of ``g``; ``LOG_{g∩h}`` is read by the members of both groups.
        Consensus objects need no entry: their state is only consumed by
        the proposer within its own (already-fired) commit action.
        """
        index: Dict[str, Set[ProcessId]] = {}
        for g in topology.groups:
            index.setdefault(f"LOG_{g.name}", set()).update(g.members)
            index.setdefault(f"L_{g.name}", set()).update(g.members)
        for g, h in topology.intersecting_pairs():
            first, second = sorted((g, h), key=lambda x: x.name)
            readers = index.setdefault(
                f"LOG_{first.name}∩{second.name}", set()
            )
            readers.update(g.members)
            readers.update(h.members)
        return {name: frozenset(pids) for name, pids in index.items()}

    def _on_object_write(self, name: str) -> None:
        """A shared object mutated: wake its readers (everyone if unknown)."""
        woken = self._wake_index.get(name, self.topology.processes)
        self._dirty |= woken
        if self.wake_listener is not None:
            self.wake_listener(woken)

    def wake_all(self) -> None:
        """Force every process through the next action scan."""
        self._dirty = set(self.topology.processes)
        if self.wake_listener is not None:
            self.wake_listener(self.topology.processes)

    def _charge(self, processes: Tuple[ProcessId, ...], reason: str) -> None:
        self.record.note_steps(self._scheduler.time, processes, reason)

    def quorum_ok(self, caller: ProcessId, scope: ProcessSet) -> bool:
        """Whether a ``Sigma_scope`` quorum can respond right now.

        The required quorum is ``mu``'s ``Sigma_scope`` sample at the
        caller (see :class:`repro.detectors.quorum.SigmaOracle` for what
        it holds under crashes and recoveries).  The operation can
        complete only when that quorum lies within the processes actually
        taking steps — alive and inside the current participation set.
        This is what makes P-fair runs (§6.2) and the sub-runs of the
        necessity constructions (§5) behave as in the message-passing
        model: silent processes cannot be part of a responsive quorum.
        """
        scheduler = self._scheduler
        required = self.mu.sigma_of(scope).query(caller, scheduler.time)
        available = required <= scheduler.responders
        self.tracer.note_quorum_query(available)
        return available

    def consensus_ok(self, caller: ProcessId, host: Group) -> bool:
        """Whether the consensus hosted by ``host`` can terminate now.

        The §4.3 construction builds consensus from ``Omega_g ∧ Sigma_g``;
        its termination is guaranteed only once ``Omega_g`` has
        stabilized.  The engine takes the adversarial reading: before the
        oracle's stabilization time, ballots may be preempted forever, so
        proposals do not complete.  (When the whole host group is faulty
        the Leadership obligation is vacuous and the quorum guard already
        pins the operation.)
        """
        omega = self.mu.omega(host)
        if omega.eventual_leader is None:
            return True
        return self.time >= omega.stabilization_time

    def _on_deliver(self, p: ProcessId, m: MulticastMessage) -> None:
        self.record.note_delivery(self.time, p, m)

    def add_component(self, component: Component) -> None:
        """Register an auxiliary action source, run before the algorithm."""
        self._components.append(component)
        self.wake_all()

    # -- Interface -----------------------------------------------------------------

    def group(self, name: str) -> Group:
        return self.topology.group(name)

    def is_alive(self, p: ProcessId) -> bool:
        return self.pattern.is_alive(p, self.time)

    def make_message(
        self, src: ProcessId, group: str, payload: object = None
    ) -> MulticastMessage:
        """Mint (but do not yet multicast) a message to a named group."""
        g = self.topology.group(group)
        if src not in g:
            raise SimulationError(
                f"closed model: {src.name} does not belong to {group}"
            )
        return self.factory.multicast(src, g.members, payload)

    def multicast(
        self, src: ProcessId, group: str, payload: object = None
    ) -> MulticastMessage:
        """Group-sequential multicast: ``src`` sends to ``group`` now."""
        if not self.is_alive(src):
            raise SimulationError(f"{src} is crashed and cannot multicast")
        message = self.make_message(src, group, payload)
        self.record.note_multicast(self.time, src, message)
        # The sender must retry its line-7 append even when the append is
        # deferred on a quorum (no object write happens in that case).
        self._dirty.add(src)
        if self.wake_listener is not None:
            self.wake_listener((src,))
        self.processes[src].multicast(message)
        return message

    # -- Execution -----------------------------------------------------------------

    def tick(
        self,
        participation: Optional[ProcessSet] = None,
        responders: Optional[ProcessSet] = None,
        action_budget: Optional[int] = None,
    ) -> int:
        """One round: advance the clock, let live processes act; returns
        the number of actions fired across the system.  The arguments
        and the per-round contract are
        :meth:`repro.runtime.scheduler.Scheduler.round`'s
        (``action_budget=1`` is what latency measurements use).
        """
        return self._scheduler.round(participation, responders, action_budget)

    def run(
        self,
        max_rounds: int = 500,
        participation: Optional[ProcessSet] = None,
        quiescent_rounds: int = 2,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run rounds until quiescence (or ``max_rounds``) — see
        :meth:`repro.runtime.scheduler.Scheduler.run`; here the settle horizon
        covers ``gamma``, the indicators and Omega.  Returns the number
        of rounds executed; :attr:`last_run_quiescent` reports how the
        run ended.
        """
        outcome = self._scheduler.run(
            max_rounds, participation, quiescent_rounds, stop_when=stop_when
        )
        return outcome.rounds

    # -- Inspection ----------------------------------------------------------------

    def delivered_at(self, p: ProcessId) -> Tuple[MulticastMessage, ...]:
        """The delivery sequence at ``p``."""
        return self.record.local_order(p)

    def everyone_delivered(self, message: MulticastMessage) -> bool:
        """Whether every *correct* destination member delivered it."""
        wanted = {
            p for p in message.dst if self.pattern.is_correct(p)
        }
        return wanted <= self.record.delivered_by(message)
