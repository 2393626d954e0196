"""The transport/clock-agnostic execution core.

:class:`ExecutionCore` owns everything about *who may act and who can
answer* that is independent of **how time advances**: the actor
registry (sorted once), the alive ∩ participation eligibility filter
with its crash-epoch memo, injector-driven participation churn, the
responder (quorum) set with its change fingerprint, the settle-horizon
and hidden-pending-work accounting that gate quiescence, and the
per-round tracer.

Two drivers share one core:

* :class:`repro.runtime.scheduler.Scheduler` (the *round driver*) —
  the lockstep loop every golden-pinned run uses: advance a logical
  clock by 1, shuffle the eligible set with the seeded RNG, dispatch.
* :class:`repro.runtime.async_driver.AsyncDriver` — the real-time
  loop: the same actors as generator tasks over in-memory channels,
  with wall-clock (or virtual-clock) delay models instead of rounds.

The split is behaviour-preserving by construction: the round driver
calls the exact code that used to live inline in ``Scheduler.round``
(same data structures, same branch order), and the golden fingerprint
suite in ``tests/runtime`` pins that down byte-for-byte.  What the
core deliberately does **not** own: the clock (drivers define time),
the RNG (only the round driver draws a schedule from it) and the
dispatch policy (full-scan forcing is a round-loop concept).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.metrics.trace import TraceRecorder
from repro.model.failures import Time

#: Sortable actor key — a ProcessId for per-process hosts, a string for
#: whole-system hosts (baselines, emulation drivers).
Key = TypeVar("Key")


class Actor:
    """One schedulable unit: a process, or a whole subsystem.

    Adapters implement three verbs:

    * :meth:`parked` — whether skipping this actor in a non-full-scan
      round is provably a no-op.  The round driver consults it *after*
      the shuffle, so parking never changes the RNG stream; the async
      driver uses it to decide when a task may sleep on its channel.
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
    engine records nothing).
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


def transition_signature(
    eligible: Iterable[Any], responders: Iterable[Any]
) -> str:
    """A compact, deterministic digest of one participation state.

    The signature covers *which* actors may act and *which* can answer
    quorum requests — the schedule-level state whose transitions
    fingerprint an interleaving.  Keys are reduced to their sortable
    identity (``ProcessId.index`` or the string key itself) so the
    digest is stable across processes and runs.
    """

    def _ident(key: Any) -> str:
        return str(getattr(key, "index", key))

    body = (
        ",".join(_ident(k) for k in eligible)
        + "|"
        + ",".join(sorted(_ident(k) for k in responders))
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]


class ExecutionCore:
    """Actor registry + eligibility/quorum/quiescence accounting.

    Args:
        actors: the schedulable units, keyed by a sortable identity.
        tracer: per-round counters (see :mod:`repro.metrics.trace`).
        is_alive: ``(key, t) -> bool`` — crash filtering; keys failing
            it are not scheduled at all.
        settle_horizon: callable returning the time by which detector
            outputs have stabilized; quiescence is only trusted past it
            (and the round driver forces full scans up to it).
        pre_round: optional hook run right after the clock advances and
            before eligibility is computed (crash-time cleanup).
        responders: initial responder set (processes able to answer
            quorum requests), before any round has run.
        injector: optional :class:`repro.faults.FaultInjector`; its
            ``suppresses`` hook models participation churn.  ``None``
            leaves every code path byte-identical to fault-free.
        pending_work: optional callable returning the amount of work
            the actors cannot see yet but that is still due (e.g.
            fault-delayed datagrams).  Quiescence is refused while it
            reports nonzero.
        alive_instants: optional times at which ``is_alive`` answers
            can change (the host's crash instants) — enables the
            epoch-memoized eligibility filter.
    """

    def __init__(
        self,
        actors: Mapping[Key, Actor],
        tracer: TraceRecorder,
        is_alive: Callable[[Key, Time], bool],
        settle_horizon: Optional[Callable[[], Time]] = None,
        pre_round: Optional[Callable[[Time], None]] = None,
        responders: Optional[FrozenSet[Key]] = None,
        injector: Optional[Any] = None,
        pending_work: Optional[Callable[[], int]] = None,
        alive_instants: Optional[Iterable[Time]] = None,
    ) -> None:
        self.actors: Dict[Key, Actor] = dict(actors)
        #: Keys in sorted order, fixed at construction: iterating this
        #: (filtered) yields the eligible set already sorted, replacing
        #: the per-round ``order.sort()`` of the seed loops with the
        #: byte-identical result.
        self.sorted_keys: Tuple[Key, ...] = tuple(sorted(self.actors))
        self.tracer = tracer
        self.is_alive = is_alive
        self._settle_horizon = settle_horizon or (lambda: 0)
        self.pre_round = pre_round
        self.injector = injector
        self._pending_work = pending_work
        #: Actors able to answer quorum requests *right now*: the alive
        #: members of the last round's responder (or scheduled) set.
        self.responders: FrozenSet[Key] = responders or frozenset()
        #: Fingerprint of (scheduled set, responder set) of the last
        #: round; a change forces a full scan (quorum availability).
        self._fp_eligible: Optional[Tuple[Key, ...]] = None
        self._fp_responders: Optional[FrozenSet[Key]] = None
        #: Cache of the default (participation-derived) responder set.
        self._default_eligible: Optional[Tuple[Key, ...]] = None
        self._default_responders: Optional[FrozenSet[Key]] = None
        #: Alive-filter memo: the filtered key list is a pure function
        #: of the crash epoch.
        self._alive_instants = (
            None if alive_instants is None else sorted(alive_instants)
        )
        self._alive_epoch: Optional[int] = None
        self._alive_order: Tuple[Key, ...] = ()

    # -- Quiescence inputs -------------------------------------------------

    def settle_horizon(self) -> Time:
        """The host's detector-stabilization time (0 when none)."""
        return self._settle_horizon()

    def has_pending_work(self) -> bool:
        """Whether hidden work (e.g. a fault delay heap) is still due."""
        return self._pending_work is not None and bool(self._pending_work())

    # -- Eligibility -------------------------------------------------------

    def eligible_order(
        self, now: Time, participation: Optional[Iterable[Key]] = None
    ) -> List[Key]:
        """The sorted alive ∩ participation ∖ suppressed keys, as a
        fresh (mutable) list — the round driver shuffles it in place."""
        is_alive = self.is_alive
        if participation is None:
            if self._alive_instants is not None:
                epoch = bisect_right(self._alive_instants, now)
                if epoch != self._alive_epoch:
                    self._alive_epoch = epoch
                    self._alive_order = tuple(
                        key
                        for key in self.sorted_keys
                        if is_alive(key, now)
                    )
                order = list(self._alive_order)
            else:
                order = [
                    key for key in self.sorted_keys if is_alive(key, now)
                ]
        else:
            order = [
                key
                for key in self.sorted_keys
                if is_alive(key, now) and key in participation
            ]
        if self.injector is not None:
            # Participation churn: suppressed actors take no step this
            # round and answer no quorum requests.  Only faulted runs
            # ever reach this branch, so the fault-free RNG stream (in
            # the round driver) is untouched.
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
                if self.is_alive(key, now)
                and (
                    self.injector is None
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
        if changed:
            # Surface the transition to the tracer as a compact
            # signature.  Digesting only on *changes* keeps the round
            # loop cost-free in the steady state (transitions happen at
            # crash epochs and churn windows, not every round).
            self.tracer.note_transition(
                transition_signature(eligible, self.responders)
            )
        return changed


__all__ = ["ExecutionCore", "Actor", "Key", "transition_signature"]
