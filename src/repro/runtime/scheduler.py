"""The scheduler — one run's failure pattern, seeded schedule and actors.

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
(§4.4): a run is a failure pattern plus a sequence of atomic actions
under an adversarially shuffled yet reproducible schedule.

It holds everything about *who may act and who can answer*: the actor
registry (sorted once), the alive ∩ participation eligibility filter
with its crash-epoch memo, injector-driven participation churn, the
responder (quorum) set with its change fingerprint, and the settle
horizon and hidden pending work that gate quiescence.  Time advances in
one of two ways: :meth:`Scheduler.round` adds 1 to the clock and
dispatches one seeded shuffle of the eligible set, while
:class:`repro.runtime.async_driver.AsyncDriver` pushes its loop clock's
round into :attr:`Scheduler.time` and fires the same actors as tasks.

Hosts adapt their unit of execution to the small :class:`Actor`
protocol (see :mod:`repro.runtime.actors`) and keep their public APIs as
thin delegations.  Two invariants make that safe:

* **RNG compatibility** — the scheduler draws from the RNG exactly as
  the seed loops did: one shuffle of the sorted eligible set per round,
  nothing else.  The shuffle is ``random.Random.shuffle``'s own
  Fisher–Yates loop with its ``_randbelow`` written out
  (:func:`shuffle`): the same ``getrandbits`` calls in the same order,
  hence the same permutation and the same RNG state, with the bit
  lengths looked up instead of recomputed per draw.  Parked actors are
  skipped *after* the shuffle, so the schedule of the actors that do
  act — and therefore every :class:`repro.model.runs.RunRecord` trace —
  is byte-identical to a scan-everything run (``tests/runtime`` holds
  the pre-refactor golden fingerprints that pin this down, and its scan
  oracle still calls the stdlib ``shuffle``).

* **Skip soundness** — an actor is skipped only when the round is not a
  *full scan* and either its key is in :attr:`Scheduler.proven_parked`
  or it reports :meth:`Actor.parked` (asked only of actors that define
  a parking test of their own).  Full scans are forced at the host's
  :attr:`Scheduler.scan_instants` (where an input of a parked actor
  other than a shared object can change: the engine's detector change
  instants, every round of the kernel's fault window) and whenever the
  (scheduled, responder) set pair changes (quorum availability); a full
  scan empties ``proven_parked``.  The set is the
  host's memo of ``parked`` verdicts that no event has voided since: the
  host adds a key when its predicate held and removes it on every event
  that can unpark it, so a member is skipped with one set lookup and no
  call into the actor.  A round's ``action_budget`` is at least 1: a
  budget of 0 would fire nothing, and every actor it scanned would read
  as parked with its work still due.
  These are soundness rules, not options: there is no scan-everything
  mode.  The seed loops' full-scan body and the predicate-only round
  the memo replaced survive as test oracles
  (``tests/runtime/_oracle.py``), which the differential suites bind
  over :meth:`Scheduler.round`.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.metrics.trace import TraceRecorder
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, Time

#: Sortable actor key — a ProcessId for per-process hosts, a string for
#: whole-system hosts (baselines, emulation drivers).
Key = TypeVar("Key")


class Actor:
    """One schedulable unit: a process, or a whole subsystem.

    Adapters implement three verbs:

    * :meth:`parked` — whether skipping this actor in a non-full-scan
      round is provably a no-op.  The round loop consults it *after*
      the shuffle, so parking never changes the RNG stream, and only
      when the adapter overrides it: the default answers False, and an
      adapter that parks by adding its key to
      :attr:`Scheduler.proven_parked` needs no test beside that set.
    * :meth:`fire` — take the actor's step(s); returns the number of
      *productive* actions (0 = the step provably changed nothing),
      which feeds both the tracer and quiescence detection.  The
      driver passes ``parked=False`` when its own skip check already
      proved the actor un-parked this round, so adapters whose
      productivity test *is* the parked test need not recompute it.
    * :meth:`wait_reasons` — why a scanned-but-idle actor is blocked
      (histogrammed into the round trace).

    ``SKIP_WAIT`` names the wait reasons recorded when the actor is
    skipped while parked (the kernel counts those as ``idle``; the
    engine records nothing).  It is one tuple per scheduler — every
    actor of a host is the same adapter — because a round adds its
    skips to the histogram in one update, after its scanned actors;
    likewise the actors of one scheduler all override :meth:`parked`
    or none does.
    """

    SKIP_WAIT: Tuple[str, ...] = ()

    def parked(self, t: Time) -> bool:
        return False

    def fire(
        self,
        t: Time,
        budget: Optional[int] = None,
        parked: Optional[bool] = None,
    ) -> int:
        raise NotImplementedError

    def wait_reasons(self) -> Iterable[str]:
        return ()


def shuffle_draws(n: int) -> Tuple[Tuple[int, int], ...]:
    """The draws :func:`shuffle` makes on a list of ``n``, last first:
    ``(i, bits)`` for ``i`` from ``n - 1`` down to 1, where ``bits`` is
    ``(i + 1).bit_length()`` — what ``random.Random._randbelow(i + 1)``
    asks ``getrandbits`` for."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


def shuffle(
    order: List[Any],
    getrandbits: Callable[[int], int],
    draws: Tuple[Tuple[int, int], ...],
) -> None:
    """``random.Random.shuffle(order)``, with ``_randbelow`` written out.

    ``getrandbits`` is the RNG's bound method and ``draws`` is
    :func:`shuffle_draws` of any ``n >= len(order)``: its last
    ``len(order) - 1`` entries are this list's.  Each swap partner is
    drawn as the stdlib draws it — ``getrandbits(bits)`` until the value
    is at most ``i`` — so the permutation and the RNG state afterwards
    are the stdlib's, at one C call per draw instead of a Python frame
    and two C calls.
    """
    for i, bits in draws[len(draws) + 1 - len(order):]:
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        order[i], order[j] = order[j], order[i]


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
    """Actors, liveness and quiescence of one run, and its round loop.

    Args:
        actors: the schedulable units, keyed by a sortable identity
            (``ProcessId`` for per-process hosts).
        seed: the schedule seed; :meth:`round` is the only consumer of
            the RNG drawn from it.
        tracer: per-round counters (see :mod:`repro.metrics.trace`).
        pattern: the run's failure pattern: keys it reports crashed are
            not scheduled, the eligible set is recomputed only when the
            clock crosses one of its change instants, and the responders
            before any round are the keys alive at 0.  ``None`` (the
            whole-system hosts) means every key is always alive.
        scan_instants: the times at which a round is a full scan: the
            instants where an input of a parked actor, other than a
            shared object, can change (the host's detector change
            instants, say).  The last of them, with the injector's
            horizon, fixes :attr:`settle_horizon`.
        pre_round: optional hook run right after the clock advances and
            before eligibility is computed (crash-time cleanup).
        injector: optional :class:`repro.faults.injector.FaultInjector`; its
            :meth:`~repro.faults.injector.FaultInjector.suppresses` hook models
            participation churn — a suppressed actor takes no step this
            round (finite asynchrony: churn windows are bounded, so
            fairness holds in the suffix) and answers no quorum request.
            It is asked only before its ``churn_quiet_from``.  ``None``
            leaves every code path byte-identical to the fault-free
            scheduler.
        pending_work: optional callable returning the amount of work the
            actors cannot see yet but that is still due — e.g. datagrams
            a link fault holds sequestered in the message buffer's delay
            heap.  A round with zero productive actions does **not**
            count toward quiescence while this reports nonzero: the
            hidden work will re-enable an actor when it lands, so
            declaring quiescence over it would truncate the run
            mid-perturbation.
    """

    def __init__(
        self,
        actors: Mapping[Key, Actor],
        seed: int,
        tracer: TraceRecorder,
        pattern: Optional[FailurePattern] = None,
        scan_instants: Iterable[Time] = (),
        pre_round: Optional[Callable[[Time], None]] = None,
        injector: Optional[Any] = None,
        pending_work: Optional[Callable[[], int]] = None,
    ) -> None:
        self.actors: Dict[Key, Actor] = dict(actors)
        #: Keys in sorted order, fixed at construction: iterating this
        #: (filtered) yields the eligible set already sorted, replacing
        #: the per-round ``order.sort()`` of the seed loops with the
        #: byte-identical result.
        self.sorted_keys: Tuple[Key, ...] = tuple(sorted(self.actors))
        self.tracer = tracer
        #: With no pattern, nobody ever crashes.
        self.pattern = pattern or FailurePattern(frozenset())
        #: The instants at which the alive set changes (crashes and
        #: rejoins): the eligible set is a pure function of the epoch
        #: between two of them.
        self.instants: Tuple[Time, ...] = self.pattern.change_instants()
        #: The full-scan instants, sorted (the async driver counts the
        #: epochs they cut), and as a set for the round's one lookup.
        self.scan_instants: Tuple[Time, ...] = tuple(sorted(set(scan_instants)))
        self._scan_at: FrozenSet[Time] = frozenset(self.scan_instants)
        self.pre_round = pre_round
        self.injector = injector
        #: The first time past every scan instant and the injector's
        #: horizon: from it on nothing a parked actor reads can change,
        #: so quiescence is only trusted there.
        last = self.scan_instants[-1] if self.scan_instants else 0
        horizon = injector.horizon if injector is not None else 0
        self.settle_horizon: Time = (last if last > horizon else horizon) + 1
        #: The time from which the injector suppresses nobody: from here
        #: on eligibility and responders skip its hook (0 without one).
        self._churn_quiet_from: Time = (
            injector.churn_quiet_from if injector is not None else 0
        )
        self._pending_work = pending_work
        self._rng = random.Random(seed)
        #: The shuffle's draws for the largest eligible set, every key,
        #: the actors' one ``SKIP_WAIT`` and whether any of them has a
        #: :meth:`Actor.parked` of its own: set by the first
        #: :meth:`round` (the async driver never runs one).
        self._draws: Optional[Tuple[Tuple[int, int], ...]] = None
        self._skip_wait: Tuple[str, ...] = ()
        self._asks_parked = False
        #: Keys the host has proven parked: a non-full-scan round skips
        #: them without asking the actor.  The host fills it and removes
        #: a key on every event that can unpark it; a full scan empties
        #: it.  Hosts hold this very set, so it is cleared, never rebound.
        self.proven_parked: Set[Key] = set()
        self.time: Time = 0
        #: Whether the most recent :meth:`run` ended in quiescence; True
        #: before any run call — nothing has been cut short yet.
        self.last_run_quiescent: bool = True
        #: Actors able to answer quorum requests *right now*: the alive
        #: members of the last round's responder (or scheduled) set.
        self.responders: FrozenSet[Key] = (
            frozenset(self.actors) - self.pattern.at(0)
        )
        #: Fingerprint of (scheduled set, responder set) of the last
        #: round; a change forces a full scan (quorum availability).
        self._fp_eligible: Optional[Tuple[Key, ...]] = None
        self._fp_responders: Optional[FrozenSet[Key]] = None
        #: Cache of the default (participation-derived) responder set.
        self._default_eligible: Optional[Tuple[Key, ...]] = None
        self._default_responders: Optional[FrozenSet[Key]] = None
        #: Alive-filter memo: the alive keys of the current epoch.
        self._alive_epoch: Optional[int] = None
        self._alive_order: Tuple[Key, ...] = ()

    # -- Quiescence inputs -------------------------------------------------

    def has_pending_work(self) -> bool:
        """Whether hidden work (e.g. a fault delay heap) is still due."""
        return self._pending_work is not None and bool(self._pending_work())

    # -- Eligibility -------------------------------------------------------

    def eligible_order(
        self, now: Time, participation: Optional[Iterable[Key]] = None
    ) -> List[Key]:
        """The sorted alive ∩ participation ∖ suppressed keys, as a
        fresh (mutable) list — :meth:`round` shuffles it in place."""
        is_alive = self.pattern.is_alive
        if participation is None:
            epoch = bisect_right(self.instants, now)
            if epoch != self._alive_epoch:
                self._alive_epoch = epoch
                self._alive_order = tuple(
                    key for key in self.sorted_keys if is_alive(key, now)
                )
            order = list(self._alive_order)
        else:
            order = [
                key
                for key in self.sorted_keys
                if is_alive(key, now) and key in participation
            ]
        if now < self._churn_quiet_from:
            # Participation churn: suppressed actors take no step this
            # round and answer no quorum requests.  Only faulted runs
            # with a churn window still open reach this branch, so the
            # fault-free RNG stream is untouched.
            order = [
                key
                for key in order
                if not self.injector.suppresses(key, now)
            ]
        return order

    def refresh_responders(
        self,
        now: Time,
        eligible: Tuple[Key, ...],
        responders: Optional[Iterable[Key]] = None,
    ) -> FrozenSet[Key]:
        """Recompute :attr:`responders` for this round."""
        if responders is None:
            if eligible == self._default_eligible:
                self.responders = self._default_responders
            else:
                self.responders = frozenset(eligible)
                self._default_eligible = eligible
                self._default_responders = self.responders
        else:
            self.responders = frozenset(
                key
                for key in responders
                if self.pattern.is_alive(key, now)
                and (
                    now >= self._churn_quiet_from
                    or not self.injector.suppresses(key, now)
                )
            )
        return self.responders

    def note_fingerprint(self, eligible: Tuple[Key, ...]) -> bool:
        """Record this round's (eligible, responders) pair; report
        whether it changed since the previous round.  Stored as the
        *sorted eligible list* plus the responder set — sorted-list
        equality is set equality without per-round hashing."""
        changed = eligible != self._fp_eligible or (
            self.responders is not self._fp_responders
            and self.responders != self._fp_responders
        )
        self._fp_eligible = eligible
        self._fp_responders = self.responders
        return changed

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
        (finest interleaving = 1; below 1 raises ``ValueError``).
        Returns the number of productive actions fired across the
        system.
        """
        if action_budget is not None and action_budget < 1:
            raise ValueError(f"action_budget {action_budget} is below 1")
        self.time += 1
        t = self.time
        if self.pre_round is not None:
            self.pre_round(t)
        order = self.eligible_order(t, participation)
        # ``order`` is already sorted (it filters the pre-sorted keys);
        # snapshot it before the shuffle for fingerprinting.
        eligible = tuple(order)
        self.refresh_responders(t, eligible, responders)
        if self._draws is None:
            self._first_round()
        shuffle(order, self._rng.getrandbits, self._draws)
        fingerprint_changed = self.note_fingerprint(eligible)
        full_scan = t in self._scan_at or fingerprint_changed
        proven = self.proven_parked
        if full_scan and proven:
            proven.clear()
        tracer = self.tracer
        tracer.begin_round(t, len(order), full_scan)
        fired = 0
        skipped = 0
        parked_hint = None if full_scan else False
        asks = not full_scan and self._asks_parked
        actors = self.actors
        for key in order:
            if key in proven:
                skipped += 1
                continue
            actor = actors[key]
            if asks and actor.parked(t):
                skipped += 1
                continue
            count = actor.fire(t, action_budget, parked_hint)
            fired += count
            if count == 0:
                for reason in actor.wait_reasons():
                    tracer.note_wait(reason)
        # Every actor neither proven parked nor found parked was scanned.
        tracer.note_scanned(fired, len(order) - skipped)
        if skipped:
            # After the scanned actors' reasons: the histogram's key
            # order is the per-skip order wherever the skip reasons are
            # none (the engine) or the scanned ones (the kernel's idle).
            tracer.note_skips(skipped, self._skip_wait)
        tracer.end_round()
        return fired

    def _first_round(self) -> None:
        """Set up what only rounds use: the draw table, and the one
        ``SKIP_WAIT`` of the actors with whether they override
        :meth:`Actor.parked` (a round asks them only if they do)."""
        adapters = {
            (actor.SKIP_WAIT, type(actor).parked is not Actor.parked)
            for actor in self.actors.values()
        }
        if len(adapters) > 1:
            raise SimulationError(
                "one scheduler's actors disagree on SKIP_WAIT or on "
                f"having a parked test: {sorted(adapters)}"
            )
        self._skip_wait, self._asks_parked = (
            adapters.pop() if adapters else ((), False)
        )
        self._draws = shuffle_draws(len(self.sorted_keys))

    # -- Many rounds -------------------------------------------------------

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
        while rounds < max_rounds:
            fired = self.round(participation)
            total_fired += fired
            rounds += 1
            if (
                fired == 0
                and self.time >= self.settle_horizon
                and not self.has_pending_work()
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


__all__ = ["Actor", "Key", "RunOutcome", "Scheduler"]
