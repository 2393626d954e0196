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
step left it at its fixpoint is parked — its key joins the scheduler's
``proven_parked``, the set the kernel parks in too — until an event that
can change its wait condition removes it:

* a write to a shared object it can read (its group logs, the
  intersection logs of its groups, its reduction lists ``L_g``): every
  log binds its reader set when it is created
  (:func:`repro.objects.space.reader_set`), and the mutation itself
  records its charge and unparks the readers through the engine's
  :class:`repro.objects.space.Sink` (the record's charge list, the
  scheduler's clock and ``proven_parked``, the wake listener) — no
  call beyond the mutation's own frame;
* a host-called :meth:`MulticastSystem.multicast` by the process;
* a change of the participation/responder sets (quorum availability) or
  a detector transition or a crash — covered by the scheduler's full
  scans (which empty the set), forced on such a change and while
  ``time <= settle_horizon()``, the window in which gamma, the
  indicators and Omega may still move and processes may still crash.

The seeded random schedule is *unchanged*: the full eligible order is
shuffled exactly as before and parked processes are merely skipped, so
the RNG stream — and therefore the :class:`repro.model.runs.RunRecord` trace —
is byte-identical to the scan-everything engine (a skipped process would
have fired nothing and recorded nothing).

One process's step runs its components (the Prop 1 helper) and then its
action scan, which runs to its own fixpoint: a visit that raises a
message's phase revisits the messages whose order wait stopped at it
(:meth:`Algorithm1Process.try_actions`).  Unbudgeted, the scan and the
helper take turns while the helper appends to ``LOG_g``
(:meth:`SharedObjectActor.fire`): a scan that delivers ``L_g[i]`` lets
the helper push ``L_g[i+1]`` in the same step, not a round later.  Such
a step ends at the process's fixpoint, so it parks the process whatever
it fired.  Each action is still one atomic operation of that one
process and no communication is merged; a step may just take several.
A budgeted step (``action_budget``) is one helper pass and one budgeted
scan, and parks the process only when it fired nothing.  The seed loop
itself is kept
as a test oracle (``tests/runtime/_oracle.py``) for differential
testing; the per-round counters land in :attr:`MulticastSystem.tracer`.

The quorum guard
================

An operation completes only when a ``Sigma`` quorum of its scope responds
(:meth:`MulticastSystem.quorum_ok`).  ``mu``'s components are histories
built once, so a verdict changes only when the scheduler's responder set
changes or the clock crosses a ``Sigma`` instant or an ``Omega_g``
stabilization time.  Algorithm 1's actions therefore read the guard from
a memo (:meth:`MulticastSystem.blocked`), one call per operation with the
guards their route binds; a miss asks ``quorum_ok``, the one body that
decides a verdict.  The memo holds for one ``responders`` object and one
epoch of those instants: :meth:`MulticastSystem.fresh_verdicts` checks
both before an action scan and before a host-called
:meth:`MulticastSystem.multicast`, and empties it when either moved, so
line 7 reads it on both of its paths.  The guard counters count every
check, hit or miss, as before.  The object space knows nothing of
availability: the guard is the actions' precondition.

Caveat for auxiliary :data:`Component` sources: a component is re-run
only while its process is awake.  Components whose enabledness is driven
by shared-object state (like the Proposition 1 reduction) wake up with
their process; a component driven by state no reader set covers must
call :meth:`MulticastSystem.wake_all`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.algorithm1 import Algorithm1Process, Guard
from repro.detectors.indicator import IndicatorOracle
from repro.detectors.mu import Mu, build_mu
from repro.groups.topology import Group, GroupTopology
from repro.metrics.trace import TraceRecorder
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, Time
from repro.model.messages import MessageFactory, MulticastMessage
from repro.model.processes import ProcessId, ProcessSet
from repro.model.runs import RunRecord
from repro.objects.space import ObjectSpace, Sink
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
        #: Where every shared-object operation charges and wakes: the
        #: record's charge list, and (once the scheduler exists) its
        #: clock and ``proven_parked``.  Its ``wake_listener`` slot is
        #: called with the processes each wake unparks (a write's readers,
        #: every process, or a sender's one-tuple): the async driver sets
        #: it to route wakes through latency-modelled channels.
        self.sink = Sink(self.record.charges)
        self.space = ObjectSpace(self.sink, isolation=isolation)
        #: The run's detector (the pattern oracles when not given).
        self.mu = build_mu(pattern, topology) if mu is None else mu
        #: The guard's memo (:meth:`blocked`): ``quorum_ok``'s verdict per
        #: scope and ``consensus_ok``'s per hosting group name.  Both are
        #: functions of the clock's epoch between two of
        #: :attr:`_verdict_instants` and of the responder set, so the
        #: memo holds for one epoch and one ``responders`` object
        #: (:meth:`fresh_verdicts`).
        self._verdicts: Dict[Any, bool] = {}
        #: Where a verdict can change with the clock: every ``Sigma``
        #: instant and every ``Omega_g`` stabilization time.
        self._verdict_instants: Tuple[Time, ...] = tuple(
            sorted(
                {t for sigma in self.mu.sigmas.values() for t in sigma.instants}
                | {omega.stabilization_time for omega in self.mu.omegas.values()}
            )
        )
        #: The responders and the epoch ``[since, until)`` the memo holds
        #: for; the first read renews it (:meth:`fresh_verdicts`).
        self._verdicts_for: Optional[FrozenSet[ProcessId]] = None
        self._verdicts_since: Time = 0
        self._verdicts_until: float = -1
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
                blocked=self.blocked,
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
        #: Who is parked: the scheduler's memo, as on the kernel.  A
        #: process enters it with a fire that left it at its fixpoint (an
        #: unbudgeted one, or one that fired nothing) and leaves it
        #: on a write to an object it reads, :meth:`wake_all` or its own
        #: host-called :meth:`multicast`; a full scan empties it.
        self._parked: Set[ProcessId] = self._scheduler.proven_parked
        self.sink.clock = self._scheduler
        self.sink.parked = self._parked

    # -- Wiring ---------------------------------------------------------------

    def wake_all(self) -> None:
        """Force every process through the next action scan."""
        sink = self.sink
        sink.parked.clear()
        if sink.wake_listener is not None:
            sink.wake_listener(self.topology.processes)

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
        try:
            sigma = self.mu.sigmas[scope]
        except KeyError:
            sigma = self.mu.sigma_of(scope)  # raises DetectorError
        available = sigma.query(caller, scheduler.time) <= scheduler.responders
        tracer = self.tracer
        tracer.quorum_queries += 1
        if not available:
            tracer.quorum_stalls += 1
        return available

    def fresh_verdicts(self) -> None:
        """Keep the guard's memo if it was kept for the scheduler's
        responder set (the very object) and the epoch of its clock;
        otherwise empty it and key it to both.  Called before an action
        scan (:meth:`SharedObjectActor.fire`) and before a host-called
        line-7 push (:meth:`multicast`): the clock and the responders
        hold still during either."""
        scheduler = self._scheduler
        if scheduler.responders is self._verdicts_for and (
            self._verdicts_since <= scheduler.time < self._verdicts_until
        ):
            return
        self._verdicts.clear()
        self._verdicts_for = scheduler.responders
        instants = self._verdict_instants
        epoch = bisect_right(instants, scheduler.time)
        self._verdicts_since = instants[epoch - 1] if epoch else 0
        self._verdicts_until = (
            instants[epoch] if epoch < len(instants) else float("inf")
        )

    def blocked(
        self,
        caller: ProcessId,
        guards: Tuple[Guard, ...],
        signature: Optional[Tuple[Any, ...]],
    ) -> Optional[str]:
        """The quorum guard of one operation by ``caller``: the
        ``reason`` of the first of ``guards`` that fails now, or ``None``
        when all hold.

        Each guard's scope is asked of the memo; a miss asks
        :meth:`quorum_ok`, the one body that decides a verdict, and keeps
        its answer.  A hit counts ``quorum_queries`` / ``quorum_stalls``
        as that call would have, so every check counts once, in order,
        up to the first failure.  A guard on ``LOG_{g∩h}`` then peeks the
        log's classification of ``signature`` (the operation's; ``None``
        only for guards without a log): off the fast path the slow scope
        is one more guard.  A ``CONS_{m,f}`` guard then reads its
        host's gate (:meth:`consensus_ok`) the same way, uncounted.
        Valid only after :meth:`fresh_verdicts` at the current clock and
        responders.
        """
        verdicts = self._verdicts
        tracer = self.tracer
        for scope, reason, ilog, gate in guards:
            if scope in verdicts:
                ok = verdicts[scope]
                tracer.quorum_queries += 1
                if not ok:
                    tracer.quorum_stalls += 1
            else:
                ok = verdicts[scope] = self.quorum_ok(caller, scope)
            if not ok:
                return reason
            if ilog is not None and not ilog.would_be_fast(caller, signature):
                slow_guard = (ilog.slow_scope(), reason, None, None)
                slow = self.blocked(caller, (slow_guard,), None)
                if slow is not None:
                    return slow
            if gate is not None:
                name = gate.name
                if name in verdicts:
                    ok = verdicts[name]
                else:
                    ok = verdicts[name] = self.consensus_ok(caller, gate)
                if not ok:
                    return reason
        return None

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
        """Register an auxiliary action source, run before the algorithm's
        scan and again after every scan that fired (unbudgeted steps)."""
        self._components.append(component)
        self.wake_all()

    # -- Interface -----------------------------------------------------------------

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
        sink = self.sink
        sink.parked.discard(src)
        if sink.wake_listener is not None:
            sink.wake_listener((src,))
        self.fresh_verdicts()
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
