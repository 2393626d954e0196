"""Scenario runner: drive a topology + failure pattern + send script.

A *send script* is a sequence of :class:`Send` instructions — who
multicasts to which group, at which round, with which payload.  The
single entry point takes a :class:`repro.workloads.spec.ScenarioSpec` —
a frozen, hashable value object, so scenarios can be stored, hashed,
shipped to worker processes and replayed (see :mod:`repro.campaign`)::

    spec = ScenarioSpec.capture(topology, pattern, sends, seed=3)
    result = run_scenario(spec)

:func:`run_deployment` is one pipeline, written once: rebuild topology
and pattern, bind the fault injector, check the script against the
closed model, build a *deployment*, hand it to its *driver*, which
interleaves the sends with execution (so multicasts race each other and
crashes) and runs to quiescence, audit the injector, finish the
:class:`repro.model.runs.RunRecord`, write the trace, return a
:class:`ScenarioResult` ready for the property checkers.  The paper
states every construction over one run model; a protocol on the
pipeline is one builder function.  :func:`run_scenario` picks Algorithm
1's from ``spec.backend`` — three admissible schedulers of one
algorithm — and the shrinker's ``"broadcast"`` harness
(:mod:`repro.faults.shrink`) passes the §2.3 baseline's:

============= ============================== ===========================
run           deployment                     driver
============= ============================== ===========================
``engine``    :func:`_algorithm1_deployment` :func:`_drive_rounds`
``kernel``    :func:`_kernel_deployment`     :func:`_drive_rounds`
``async``     :func:`_algorithm1_deployment` :func:`_drive_async`
``broadcast`` :func:`_broadcast_deployment`  :func:`_drive_rounds`
============= ============================== ===========================

All produce the same :class:`RunRecord` shape, so delivery sets and §2.2
property verdicts are directly comparable across them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.broadcast import BroadcastMulticast
from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.detectors.mu import build_mu
from repro.faults.injector import AdmissibilityError, FaultInjector, injector_for
from repro.groups.topology import GroupTopology
from repro.metrics.trace import TraceRecorder
from repro.model.errors import PropertyViolation, SimulationError, TopologyError
from repro.model.failures import FailurePattern, Time
from repro.model.messages import MessageBuffer, MessageFactory, MulticastMessage
from repro.model.processes import ProcessId
from repro.model.runs import RunRecord
from repro.runtime.actors import RoundHost
from repro.runtime.async_driver import AsyncDriver
from repro.runtime.watchdog import StallWatchdog
from repro.sim.kernel import Kernel
from repro.substrates.consensus import OmegaSigmaSampler
from repro.substrates.replicated_log import ReplicatedLogCluster
from repro.workloads.spec import ScenarioSpec


@dataclass(frozen=True)
class Send:
    """One scripted multicast.

    Attributes:
        sender: 1-based process index (must belong to the group).
        group: destination group name.
        at_round: engine round at which the multicast is issued.
        payload: optional application payload (keep it a JSON scalar if
            the enclosing spec must round-trip through JSON).
    """

    sender: int
    group: str
    at_round: Time = 0
    payload: object = None


def open_loop_sends(topology: GroupTopology, count: int) -> Tuple[Send, ...]:
    """``count`` multicasts, round-robin over groups and their members.

    Arrivals are open-loop in logical time, two per round from round 1:
    every send fires at its scripted round whether or not earlier
    multicasts have been delivered.
    """
    groups = sorted(topology.groups, key=lambda g: g.name)
    sends = []
    for i in range(count):
        group = groups[i % len(groups)]
        members = sorted(group.members)
        sends.append(
            Send(members[i % len(members)].index, group.name, at_round=1 + i // 2)
        )
    return tuple(sends)


def triage_record(spec: ScenarioSpec) -> Dict[str, Any]:
    """The one-line repro record attached to every failure.

    Carries exactly what replaying the run needs — the spec's content
    address, the schedule seed, the backend and the fault plan hash —
    so a red row (or a raised checker exception) is reproducible from
    the log alone.
    """
    return {
        "spec_hash": spec.spec_hash(),
        "seed": spec.seed,
        "backend": spec.backend,
        "fault_plan_hash": (
            spec.faults.plan_hash() if spec.faults is not None else None
        ),
    }


def triage_line(spec: ScenarioSpec) -> str:
    """:func:`triage_record` rendered as one greppable line."""
    record = triage_record(spec)
    return (
        f"[triage spec_hash={record['spec_hash']} seed={record['seed']} "
        f"backend={record['backend']} "
        f"fault_plan={record['fault_plan_hash'] or '-'}]"
    )


#: The :meth:`TraceRecorder.summary` totals a result row carries: the
#: scan counters, then the wait reasons and oracle query totals.
ROW_TRACE_KEYS = (
    "eligible", "scanned", "actions", "quorum_stalls",
    "rounds", "skipped", "full_scan_rounds",
    "quorum_queries", "gamma_queries", "indicator_queries",
    "wait_reasons",
)


@dataclass
class ScenarioResult:
    """Everything a test needs to judge a finished run.

    Attributes:
        spec: the :class:`ScenarioSpec` that produced this result — a
            result self-describes the scenario behind it.
        skipped_sends: sends whose sender was already crashed at their
            round — legitimately impossible, not a runner failure.
        unsent_sends: sends never issued because ``max_rounds`` ran out
            before their round was reached.  A truncated script proves
            nothing, so :meth:`delivered_everywhere` refuses success
            while this list is non-empty.
        truncated: True when the run ended because the round budget ran
            out rather than because the system went quiescent — either
            sends were left unissued (``unsent_sends``) or the drain
            phase was cut short.  A truncated run proves nothing.
        quiescent: whether the drain phase actually reached quiescence
            (the executing loop's ``last_run_quiescent``) — the
            productive half of ``truncated``, surfaced on its own so
            sweep rows can distinguish "budget ran out" from "script was
            never finished".
        host: the deployment's :class:`RoundHost`, also readable by type
            as ``system`` (Algorithm 1) or ``kernel``.
    """

    record: RunRecord
    messages: List[MulticastMessage]
    host: RoundHost
    rounds: int
    spec: ScenarioSpec
    skipped_sends: List[Send] = field(default_factory=list)
    unsent_sends: List[Send] = field(default_factory=list)
    truncated: bool = False
    quiescent: bool = True
    #: The bound :class:`repro.faults.injector.FaultInjector` of a faulted run
    #: (``None`` for fault-free runs) — its stats feed the result row.
    injector: Optional[FaultInjector] = None
    #: Async-backend ack/retransmit counters
    #: (:attr:`AsyncDriver.last_transport_stats`); ``None`` on the round
    #: backends, which have no transport layer.
    transport_stats: Optional[Dict[str, int]] = None

    @property
    def backend(self) -> str:
        """Which execution loop produced this result."""
        return self.spec.backend

    @property
    def system(self) -> Optional[MulticastSystem]:
        return self.host if isinstance(self.host, MulticastSystem) else None

    @property
    def kernel(self) -> Optional[Kernel]:
        return self.host if isinstance(self.host, Kernel) else None

    @property
    def tracer(self) -> TraceRecorder:
        """The per-round trace of whichever loop ran the scenario."""
        return self.host.tracer

    def delivered_everywhere(self) -> bool:
        if self.unsent_sends or self.truncated:
            return False
        # Judged on the record alone (not the live system), so every
        # backend shares one definition: no *correct* destination member
        # still owes a scripted message its delivery.
        return not any(map(self.record.undelivered, self.messages))

    def verdicts(self) -> Dict[str, int]:
        """The §2.2 violation counts of the record, plus the spec
        variant's extra checkers (strict ordering, ...)."""
        from repro.props.batch import batch_verdicts, variant_checks

        return batch_verdicts(self.record, extra=variant_checks(self.spec.variant))

    def to_row(self) -> Dict[str, Any]:
        """The result as one flat, JSON-ready sweep row.

        The row carries the spec (and its content hash) next to the
        outcome — delivery verdict, rounds, truncation, send accounting,
        the engine's trace totals and the §2.2 property verdicts — so a
        results file is self-contained: every row names the scenario
        that produced it and can be replayed from the row alone.
        """
        trace = self.tracer.summary()
        row: Dict[str, Any] = {
            "name": self.spec.name,
            "spec_hash": self.spec.spec_hash(),
            "status": "ok",
            "backend": self.backend,
            "delivered_everywhere": self.delivered_everywhere(),
            "truncated": self.truncated,
            "quiescent": self.quiescent,
            "rounds": self.rounds,
            "messages": len(self.messages),
            "skipped_sends": len(self.skipped_sends),
            "unsent_sends": len(self.unsent_sends),
            "deliveries": len(self.record.deliveries),
            "verdicts": self.verdicts(),
            "trace": {key: trace[key] for key in ROW_TRACE_KEYS},
            "spec": self.spec.to_json(),
        }
        if self.injector is not None:
            row["faults"] = self.injector.summary()
        if self.transport_stats is not None:
            row["transport"] = dict(self.transport_stats)
        return row

    def assert_ok(self) -> None:
        """Raise :class:`PropertyViolation` unless every checker passes.

        Unlike a bare assertion on :func:`batch_verdicts`, the raised
        exception carries the triage line (spec hash, seed, backend,
        fault plan hash), so a red run is replayable from the error
        message alone.
        """
        triage = triage_line(self.spec)
        bad = {name: count for name, count in self.verdicts().items() if count}
        if bad:
            raise PropertyViolation(
                "+".join(sorted(bad)), f"violation counts {bad} {triage}"
            )
        if self.truncated:
            raise PropertyViolation(
                "termination",
                f"run truncated before quiescence — proves nothing {triage}",
            )


def run_scenario(
    spec: ScenarioSpec,
    *,
    trace_path: Optional[str] = None,
    stall_window: Optional[int] = None,
) -> ScenarioResult:
    """Execute a scripted scenario to quiescence.

    ``spec`` is a :class:`ScenarioSpec`; ``trace_path`` and
    ``stall_window`` are the only other accepted arguments (an output
    sink and a liveness backstop — execution-harness concerns, not part
    of the scenario).  To vary a tuning axis derive a new spec with
    :func:`dataclasses.replace`.

    ``stall_window`` arms the stall watchdog: a run whose progress
    fingerprint (deliveries for the engine/async backends, applied log
    entries for the kernel) does not change for that many consecutive
    rounds past the settle horizon raises
    :class:`repro.runtime.watchdog.StallError` carrying the wait-reason
    histogram, instead of burning the rest of its round budget.  The
    watchdog never changes what an un-stalled run computes — it only
    decides how long a stalled one is allowed to spin — so spec hashes
    and golden traces are unaffected.

    The script is checked against the closed model before anything
    runs: a send naming an unknown process index raises
    :class:`ValueError`, a sender outside its destination group raises
    :class:`SimulationError` — on every backend, crashed sender or not.
    Sends whose sender is already crashed at their round are skipped and
    reported in ``skipped_sends`` (a crashed process cannot multicast).
    Sends still waiting for their round when ``max_rounds`` runs out are
    reported in ``unsent_sends``, and a run whose drain phase exhausts
    the budget before quiescence is flagged ``truncated`` — in both
    cases the run proves nothing and ``delivered_everywhere()`` refuses
    success.

    When ``trace_path`` is given, the host's per-round trace is written
    there as JSONL (see :mod:`repro.metrics.trace`) after the run
    finishes.
    """
    # A non-spec has no backend; run_deployment rejects it by type.
    kernel = getattr(spec, "backend", None) == "kernel"
    return run_deployment(
        spec,
        _kernel_deployment if kernel else _algorithm1_deployment,
        trace_path=trace_path,
        stall_window=stall_window,
    )


def run_deployment(
    spec: ScenarioSpec,
    build: Callable[
        [ScenarioSpec, GroupTopology, FailurePattern, Optional[FaultInjector]],
        "_Deployment",
    ],
    *,
    trace_path: Optional[str] = None,
    stall_window: Optional[int] = None,
) -> ScenarioResult:
    """The pipeline behind :func:`run_scenario`, over any deployment.

    ``build(spec, topology, pattern, injector)`` returns the
    :class:`_Deployment` to run — the one place a protocol or a backend
    differs from another; everything :func:`run_scenario` documents
    holds for every builder.
    """
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(
            "run_scenario takes a ScenarioSpec, not "
            f"{type(spec).__name__}; build one with "
            "ScenarioSpec.capture(topology, pattern, sends, ...)"
        )
    topology = spec.build_topology()
    pattern = spec.build_pattern()
    injector = injector_for(spec.faults, topology, seed=spec.seed)
    if injector is not None:
        # Crash bursts perturb the failure pattern *before* the system
        # is built, so detectors, settle horizons and the record all see
        # the faulted pattern.
        pattern = injector.perturb_pattern(pattern)
    senders = script_senders(spec, topology)
    deployment = build(spec, topology, pattern, injector)
    host = deployment.host
    pending = sorted(spec.sends, key=lambda s: s.at_round)
    messages: List[MulticastMessage] = []
    skipped: List[Send] = []

    def issue(send: Send, t: Time) -> None:
        sender = senders[send.sender]
        if not pattern.is_alive(sender, t):
            skipped.append(send)
            return
        messages.append(deployment.multicast(sender, send.group, send.payload))

    def arm_watchdog() -> Optional[StallWatchdog]:
        # Called by the driver when it starts watching, because the
        # watchdog baselines its progress fingerprint on construction.
        if stall_window is None:
            return None
        return StallWatchdog(
            deployment.progress,
            window=stall_window,
            wait_reasons=lambda: host.tracer.summary()["wait_reasons"],
            grace=host.settle_horizon(),
        )

    driven = deployment.drive(spec, deployment, pending, issue, arm_watchdog)
    unsent = pending[driven.issued :]
    _audit_injector(
        injector, spec, host.time, buffer=deployment.buffer, pattern=pattern
    )
    record = deployment.finish()
    if trace_path is not None:
        host.tracer.write_jsonl(
            trace_path,
            meta={
                "topology": repr(topology),
                "pattern": str(pattern),
                "seed": spec.seed,
                "backend": spec.backend,
                **deployment.meta,
                **driven.meta,
                "spec_hash": spec.spec_hash(),
                "sends": len(spec.sends),
                "rounds": driven.rounds,
            },
        )
    return ScenarioResult(
        record=record,
        messages=messages,
        host=host,
        rounds=driven.rounds,
        spec=spec,
        skipped_sends=skipped,
        unsent_sends=unsent,
        truncated=bool(unsent) or not driven.quiescent,
        quiescent=driven.quiescent,
        injector=injector,
        transport_stats=driven.transport_stats,
    )


def script_senders(spec: ScenarioSpec, topology: GroupTopology) -> Dict[int, ProcessId]:
    """The ``index -> ProcessId`` map a send script is issued through.

    Checks the whole script against the closed model once, before
    anything runs, so a malformed spec fails the same way whichever
    backend executes it and whether or not the offending sender is
    still alive at its round.
    """
    by_index = {p.index: p for p in topology.processes}
    for send in spec.sends:
        sender = by_index.get(send.sender)
        if sender is None:
            raise ValueError(f"no process with index {send.sender}")
        if sender not in topology.group(send.group):
            raise SimulationError(
                f"closed model: {sender.name} does not belong to {send.group}"
            )
    return by_index


@dataclass
class _Deployment:
    """What the pipeline needs from a built deployment, and nothing else.

    ``host`` is a :class:`RoundHost`: ``time``, ``tracer``,
    ``last_run_quiescent``, ``settle_horizon()`` and ``run(budget,
    quiescent_rounds=, stop_when=)`` are its protocol.  ``step`` is its
    one-round method, named because the benchmark times
    ``MulticastSystem.tick`` and ``Kernel.round`` as themselves.
    """

    host: RoundHost
    step: Callable[[], int]
    #: ``(spec, deployment, pending, issue, arm_watchdog) -> _Driven``.
    drive: Callable[..., "_Driven"]
    #: Multicast ``payload`` from a (live, member) sender to a group now.
    multicast: Callable[[ProcessId, str, object], MulticastMessage]
    #: The stall watchdog's progress fingerprint.
    progress: Callable[[], int]
    #: Complete and return the run's :class:`RunRecord`.
    finish: Callable[[], RunRecord]
    #: Backend-specific trace ``meta`` entries.
    meta: Dict[str, Any] = field(default_factory=dict)
    #: The datagram buffer the admissibility audit inspects (kernel only).
    buffer: Optional[MessageBuffer] = None


def _algorithm1_deployment(
    spec: ScenarioSpec,
    topology: GroupTopology,
    pattern: FailurePattern,
    injector: Optional[FaultInjector],
) -> _Deployment:
    """Algorithm 1 proper: the deployment of ``engine`` *and* ``async``.

    The two backends differ only in who schedules the actors — the
    lockstep round loop or the :class:`AsyncDriver` — so they share the
    :class:`MulticastSystem` and its :class:`AtomicMulticast` front end.
    """
    mu = build_mu(pattern, topology, spec.gamma_lag)
    if injector is not None:
        mu = injector.perturb_mu(mu)
    system = MulticastSystem(
        topology,
        pattern,
        variant=spec.variant,
        mu=mu,
        seed=spec.seed,
        injector=injector,
    )
    return _Deployment(
        host=system,
        step=system.tick,
        drive=_drive_async if spec.backend == "async" else _drive_rounds,
        multicast=AtomicMulticast(system).multicast,
        progress=lambda: len(system.record.deliveries),
        finish=lambda: system.record,
        meta={"variant": spec.variant},
    )


def _kernel_deployment(
    spec: ScenarioSpec,
    topology: GroupTopology,
    pattern: FailurePattern,
    injector: Optional[FaultInjector],
) -> _Deployment:
    """The Appendix-A kernel backend: one replicated log per group.

    Each destination group gets its own
    :class:`~repro.substrates.replicated_log.ReplicatedLogCluster` (one
    log per group, the §4.3 universal construction), all hosted by a
    single :class:`Kernel` so the whole scenario shares one clock, one
    message buffer and one scheduler.  A multicast becomes an ``append``
    of the minted message id at the sender's replica; a replica
    *delivers* the message when its log applies that id.  The resulting
    :class:`RunRecord` feeds the same property checkers as the engine
    backend (step accounting stays in ``kernel.steps_taken`` — kernel
    steps are datagram receipts, not engine actions, and charging them
    as record steps would make the Minimality audit compare
    incomparable units).
    """
    for g, h in itertools.combinations(topology.groups, 2):
        if g.members & h.members:
            raise TopologyError(
                f"kernel backend needs pairwise-disjoint groups: "
                f"{g.name} and {h.name} share "
                f"{sorted(p.name for p in g.members & h.members)} "
                f"(intersecting groups need Algorithm 1 — the engine "
                f"backend)"
            )
    # Faulted runs arm the proposer's fair-lossy retransmission timer: a
    # PREPARE/ACCEPT lost to a drop, a partition crossing, or an
    # acceptor's crash–rejoin window must eventually be re-offered or
    # the slot wedges.  Fault-free runs leave it off, so the golden
    # kernel fingerprints (exact step counts) are untouched.
    retransmit_interval = 8 if injector is not None else None
    clusters = {
        g.name: ReplicatedLogCluster(
            pattern, g.members, retransmit_interval=retransmit_interval
        )
        for g in topology.groups
    }
    automata = {}
    detectors = {}
    for cluster in clusters.values():
        automata.update(cluster.automata)
        detectors.update(cluster.detectors)
    if injector is not None:
        # A group's replicas share one sampler over the run's perturbed
        # ``Omega_g`` and ``Sigma_g``.  A fault-free run builds no ``Mu``:
        # the clusters' samplers hold the same oracles.
        mu = injector.perturb_mu(build_mu(pattern, topology))
        for g in topology.groups:
            sampler = OmegaSigmaSampler(mu.omega(g), mu.sigma_of(g.members))
            detectors.update(dict.fromkeys(clusters[g.name].automata, sampler))
    kernel = Kernel(
        pattern,
        automata,
        detectors,
        seed=spec.seed,
        injector=injector,
    )
    record = RunRecord(topology.processes, pattern)
    factory = MessageFactory()
    by_mid: Dict[Any, MulticastMessage] = {}

    def multicast(sender: ProcessId, group: str, payload: object) -> MulticastMessage:
        message = factory.multicast(sender, topology.group(group).members, payload)
        by_mid[message.mid] = message
        record.note_multicast(kernel.time, sender, message)
        clusters[group].append(sender, message.mid)
        return message

    def applied() -> int:
        # Kernel progress = log entries applied anywhere: a stalled
        # consensus can keep datagrams circulating (steps fire every
        # round), so step counts cannot be the fingerprint — applied
        # outputs can.
        return sum(len(entries) for entries in kernel.outputs.values())

    def finish() -> RunRecord:
        # Synthesize the delivery trace: a replica delivered m when its
        # log applied m's id.  Sorted by (time, process, apply order),
        # which is unique, so the tuple sort never compares the last two
        # fields.  The global event list is deterministic; per-process
        # order is the apply order, which is what Ordering judges.  A
        # replica's outputs are tuples: its ``("applied", position,
        # value)`` and its slots' ``(slot, ("decide", batch))``.
        applies: List[Tuple[Time, int, int, ProcessId, MulticastMessage]] = []
        for p, entries in kernel.outputs.items():
            for position, (when, value) in enumerate(entries):
                if value[0] == "applied" and value[2] in by_mid:
                    applies.append((when, p.index, position, p, by_mid[value[2]]))
        for when, _, _, p, message in sorted(applies):
            record.note_delivery(when, p, message)
        return record

    return _Deployment(
        host=kernel,
        step=kernel.round,
        drive=_drive_rounds,
        multicast=multicast,
        progress=applied,
        finish=finish,
        buffer=kernel.buffer,
    )


def _broadcast_deployment(
    spec: ScenarioSpec,
    topology: GroupTopology,
    pattern: FailurePattern,
    injector: Optional[FaultInjector],
) -> _Deployment:
    """The §2.3 non-genuine baseline: multicast atop a global broadcast.

    The baseline has no buffer and samples no detectors, so only the
    crash slice of a fault plan (already in ``pattern``) perturbs it.
    """
    system = BroadcastMulticast(topology, pattern, seed=spec.seed)
    return _Deployment(
        host=system,
        step=system.tick,
        drive=_drive_rounds,
        multicast=system.multicast,
        progress=lambda: len(system.record.deliveries),
        finish=lambda: system.record,
    )


@dataclass
class _Driven:
    """How a drive ended: what the result and the trace ``meta`` need."""

    rounds: int
    #: How many of the sorted script's sends were reached (issued or skipped).
    issued: int
    quiescent: bool
    meta: Dict[str, Any] = field(default_factory=dict)
    transport_stats: Optional[Dict[str, int]] = None


def _drive_rounds(
    spec: ScenarioSpec,
    deployment: _Deployment,
    pending: Sequence[Send],
    issue: Callable[[Send, Time], None],
    arm_watchdog: Callable[[], Optional[StallWatchdog]],
) -> _Driven:
    """The lockstep driver: interleave the script with rounds, then drain."""
    host = deployment.host
    rounds = 0
    cursor = 0
    while True:
        # Issue everything scheduled for the current time.
        while cursor < len(pending) and pending[cursor].at_round <= host.time:
            issue(pending[cursor], host.time)
            cursor += 1
        if cursor >= len(pending):
            break
        deployment.step()
        rounds += 1
        if rounds >= spec.max_rounds:
            break
    # Only the drain is watched: progress made while the script was
    # still being issued is the baseline, not a stall.
    watchdog = arm_watchdog()
    # The issue loop may have consumed the entire budget; the drain gets
    # whatever is left, never a negative allowance.
    rounds += host.run(
        max(0, spec.max_rounds - rounds),
        quiescent_rounds=2,
        stop_when=(
            watchdog.stop_when(lambda: host.time)
            if watchdog is not None
            else None
        ),
    )
    return _Driven(rounds, cursor, host.last_run_quiescent)


def _drive_async(
    spec: ScenarioSpec,
    deployment: _Deployment,
    pending: Sequence[Send],
    issue: Callable[[Send, Time], None],
    arm_watchdog: Callable[[], Optional[StallWatchdog]],
) -> _Driven:
    """The asynchronous driver over the same Algorithm 1 deployment.

    Instead of the lockstep round loop, an :class:`AsyncDriver` runs
    every process as a task on its own event loop and routes
    shared-object wake-ups through latency-modelled channels
    (``spec.delay_model``).  Tasks are never preempted, so each ``fire``
    is atomic, shared-object operations stay linearizable and the run is
    an admissible run of the same model; only the interleaving (and
    hence the round count) differs.  The loop clock counts rounds and
    every latency comes from an RNG seeded by the spec, so the run is a
    pure function of the spec and replays exactly; the watchdog checks
    once per round, as on the round backends.
    """
    driver = AsyncDriver(
        deployment.host, delay_model=spec.delay_model, seed=spec.seed
    )
    outcome = driver.run(
        sends=pending,
        issue=issue,
        max_rounds=spec.max_rounds,
        quiescent_rounds=2,
        watchdog=arm_watchdog(),
    )
    return _Driven(
        outcome.rounds,
        driver.sends_cursor,
        outcome.quiescent,
        meta={"delay_model": repr(driver.delay.spec())},
        transport_stats=dict(driver.last_transport_stats),
    )


def _audit_injector(
    injector: Optional[FaultInjector],
    spec: ScenarioSpec,
    final_time: Time,
    buffer: Optional[MessageBuffer],
    pattern: FailurePattern,
) -> None:
    """Post-run admissibility audit — a violating injector never passes
    silently (raises :class:`AdmissibilityError` with the triage line)."""
    if injector is None:
        return
    violations = injector.audit(final_time, buffer=buffer, pattern=pattern)
    if violations:
        raise AdmissibilityError(
            "fault plan left the admissible envelope: "
            + "; ".join(violations)
            + " "
            + triage_line(spec)
        )


def random_sends(
    topology: GroupTopology,
    count: int,
    seed: int = 0,
    spread_rounds: int = 5,
) -> List[Send]:
    """A seeded random send script respecting the closed model."""
    rng = random.Random(seed)
    sends: List[Send] = []
    for _ in range(count):
        group = rng.choice(topology.groups)
        sender = rng.choice(sorted(group.members))
        sends.append(
            Send(
                sender=sender.index,
                group=group.name,
                at_round=rng.randint(0, spread_rounds),
            )
        )
    return sends
