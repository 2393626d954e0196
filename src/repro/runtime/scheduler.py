"""The round driver — the lockstep loop of every golden-pinned run.

Before this layer existed the repo ran the paper's constructions on two
parallel-evolved loops: the round-based shared-object engine
(:mod:`repro.core.engine`, Algorithm 1 and the §5/§6 emulations) and the
step-level Appendix-A kernel (:mod:`repro.sim.kernel`, the §4.3
message-passing substrates).  Both implemented the same per-round
contract — advance the clock, filter the alive processes inside the
participation set, shuffle them with the seeded RNG, dispatch, account
the round in the tracer, detect quiescence — with independently drifting
semantics.  The :class:`Scheduler` owns that contract once, in the
spirit of the single linearized-action model the paper reasons on
(§4.4): a run is a sequence of atomic actions under an adversarially
shuffled yet reproducible schedule.

Since the ``backend="async"`` refactor the schedule-independent half of
that contract — the actor registry, the alive ∩ participation filter,
responder/quorum accounting, quiescence inputs — lives in
:class:`repro.runtime.core.ExecutionCore`; this module keeps what is
genuinely *round-shaped*: the +1 logical clock, the one-shuffle-per-
round RNG discipline, the full-scan forcing rules and the lockstep
quiescence loop.  :class:`repro.runtime.async_driver.AsyncDriver` runs
the same core (and the same actors) under real or virtual time instead.

Hosts adapt their unit of execution to the small :class:`Actor`
protocol (see :mod:`repro.runtime.actors`) and keep their public APIs as
thin delegations.  Two invariants make that safe:

* **RNG compatibility** — the scheduler draws from the RNG exactly as
  the seed loops did: one shuffle of the sorted eligible set per round,
  nothing else.  Parked actors are skipped *after* the shuffle, so the
  schedule of the actors that do act — and therefore every
  :class:`repro.model.RunRecord` trace — is byte-identical to a
  scan-everything run (``tests/runtime`` holds the pre-refactor golden
  fingerprints that pin this down).

* **Skip soundness** — an actor is skipped only when (a) the round is
  not a *full scan* and (b) the actor reports :meth:`Actor.parked`.
  Full scans are forced while ``time <= settle_horizon()`` (detector
  outputs may still move), whenever the (scheduled, responder) set pair
  changes (quorum availability), and on non-positive action budgets —
  the same conservative fallbacks the event-driven engine introduced in
  PR 1.  These are soundness rules, not options: there is no
  scan-everything mode.  The seed loops' full-scan body survives as a
  test oracle (``tests/runtime/_oracle.py``), which the differential
  suites bind over :meth:`Scheduler.round`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
)

from repro.metrics.trace import TraceRecorder
from repro.model.failures import Time
from repro.runtime.core import Actor, ExecutionCore, Key


@dataclass(frozen=True)
class RunOutcome:
    """What one :meth:`Scheduler.run` call actually did.

    Attributes:
        rounds: rounds executed (<= the ``max_rounds`` budget).
        quiescent: whether the run ended in quiescence — ``False`` means
            the round budget (or a ``stop_when`` predicate) cut it short
            and the run proves nothing about termination.
        fired: total productive actions across all rounds.
    """

    rounds: int
    quiescent: bool
    fired: int


class Scheduler:
    """The round driver: lockstep rounds over an :class:`ExecutionCore`.

    Args:
        actors: the schedulable units, keyed by a sortable identity
            (``ProcessId`` for per-process hosts).
        rng: the seeded schedule source; the round driver is its only
            consumer.
        tracer: per-round counters (see :mod:`repro.metrics.trace`).
        is_alive: ``(key, t) -> bool`` — crash filtering; keys failing
            it are not scheduled at all.
        settle_horizon: callable returning the time by which detector
            outputs have stabilized; full scans are forced up to it and
            quiescence is only trusted past it.
        pre_round: optional hook run right after the clock advances and
            before eligibility is computed (crash-time cleanup).
        responders: initial responder set (processes able to answer
            quorum requests), before any round has run.
        injector: optional :class:`repro.faults.FaultInjector`; its
            :meth:`~repro.faults.FaultInjector.suppresses` hook models
            participation churn — a suppressed actor takes no step this
            round (finite asynchrony: churn windows are bounded, so
            fairness holds in the suffix).  ``None`` leaves every code
            path byte-identical to the fault-free scheduler.
        alive_instants: optional times at which ``is_alive`` answers can
            change (the host's crash instants).  When given, the default
            eligibility filter is recomputed only when the clock crosses
            an instant instead of once per round — with hundreds of
            actors the per-round alive sweep dominates scheduling cost.
            ``None`` preserves the per-round filter.
        pending_work: optional callable returning the amount of work the
            actors cannot see yet but that is still due — e.g. datagrams
            a link fault holds sequestered in the message buffer's delay
            heap.  A round with zero productive actions does **not**
            count toward quiescence while this reports nonzero: the
            hidden work will re-enable an actor when it lands, so
            declaring quiescence over it would truncate the run
            mid-perturbation.  ``None`` (fault-free hosts) keeps the
            check byte-identical to the seed behaviour.
    """

    def __init__(
        self,
        actors: Mapping[Key, Actor],
        rng: random.Random,
        tracer: TraceRecorder,
        is_alive: Callable[[Key, Time], bool],
        settle_horizon: Optional[Callable[[], Time]] = None,
        pre_round: Optional[Callable[[Time], None]] = None,
        responders: Optional[FrozenSet[Key]] = None,
        injector: Optional[Any] = None,
        pending_work: Optional[Callable[[], int]] = None,
        alive_instants: Optional[Iterable[Time]] = None,
    ) -> None:
        self.core = ExecutionCore(
            actors,
            tracer,
            is_alive,
            settle_horizon=settle_horizon,
            pre_round=pre_round,
            responders=responders,
            injector=injector,
            pending_work=pending_work,
            alive_instants=alive_instants,
        )
        self._rng = rng
        self.time: Time = 0
        #: Whether the most recent :meth:`run` ended in quiescence; True
        #: before any run call — nothing has been cut short yet.
        self.last_run_quiescent: bool = True

    @property
    def tracer(self) -> TraceRecorder:
        return self.core.tracer

    @property
    def responders(self) -> FrozenSet[Key]:
        """Actors able to answer quorum requests right now."""
        return self.core.responders

    # -- One round ---------------------------------------------------------

    def round(
        self,
        participation: Optional[Iterable[Key]] = None,
        responders: Optional[Iterable[Key]] = None,
        action_budget: Optional[int] = None,
    ) -> int:
        """One round: advance the clock, let eligible actors act.

        ``participation`` restricts who *acts* this round; ``responders``
        (defaulting to the participation set) restricts who may answer
        quorum requests — CHT-style simulated runs schedule one actor
        per step while the other scheduled processes still serve
        quorums.  ``action_budget`` caps actions per actor per round
        (finest interleaving = 1).  Returns the number of productive
        actions fired across the system.
        """
        self.time += 1
        core = self.core
        if core.pre_round is not None:
            core.pre_round(self.time)
        order = core.eligible_order(self.time, participation)
        # ``order`` is already sorted (it filters the pre-sorted keys);
        # snapshot it before the shuffle for fingerprinting.
        eligible = tuple(order)
        core.refresh_responders(self.time, eligible, responders)
        self._rng.shuffle(order)
        fingerprint_changed = core.note_fingerprint(eligible)
        full_scan = (
            self.time <= core.settle_horizon()
            or fingerprint_changed
            or (action_budget is not None and action_budget <= 0)
        )
        tracer = core.tracer
        tracer.begin_round(self.time, len(order), full_scan)
        fired = 0
        parked_hint = None if full_scan else False
        actors = core.actors
        for key in order:
            actor = actors[key]
            if not full_scan and actor.parked(self.time):
                tracer.note_skipped()
                for reason in actor.SKIP_WAIT:
                    tracer.note_wait(reason)
                continue
            count = actor.fire(self.time, action_budget, parked_hint)
            fired += count
            tracer.note_scanned(count)
            if count == 0:
                for reason in actor.wait_reasons():
                    tracer.note_wait(reason)
        tracer.end_round()
        return fired

    # -- Many rounds -------------------------------------------------------

    def settle_horizon(self) -> Time:
        """The host's detector-stabilization time (0 when none)."""
        return self.core.settle_horizon()

    def run(
        self,
        max_rounds: int = 500,
        participation: Optional[Iterable[Key]] = None,
        quiescent_rounds: int = 2,
        stop_when: Optional[Callable[[], bool]] = None,
        halt_on_quiescence: bool = True,
    ) -> RunOutcome:
        """Run rounds until quiescence (or ``max_rounds``).

        Quiescence requires ``quiescent_rounds`` consecutive rounds with
        zero productive actions *after* the settle horizon, since
        actions blocked on a detector may re-enable when it settles.
        An idle round also does not count while the host's
        ``pending_work`` hook reports outstanding hidden work (e.g.
        fault-delayed datagrams still due for release): quiescence over
        a non-empty delay heap would be a lie.  With
        ``halt_on_quiescence=False`` the budget is always executed
        in full (the legacy kernel contract) and the outcome reports
        whether the run *ended* quiescent.  ``stop_when`` is evaluated
        after every round and cuts the run short without claiming
        quiescence.
        """
        idle = 0
        rounds = 0
        total_fired = 0
        quiescent = False
        core = self.core
        while rounds < max_rounds:
            fired = self.round(participation)
            total_fired += fired
            rounds += 1
            if (
                fired == 0
                and self.time >= core.settle_horizon()
                and not core.has_pending_work()
            ):
                idle += 1
                if idle >= quiescent_rounds and halt_on_quiescence:
                    quiescent = True
                    break
            else:
                idle = 0
            if stop_when is not None and stop_when():
                break
        if not quiescent:
            quiescent = idle >= quiescent_rounds
        self.last_run_quiescent = quiescent
        return RunOutcome(rounds=rounds, quiescent=quiescent, fired=total_fired)
