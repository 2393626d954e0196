"""Fault plans: an adversarial schedule described as a *value*.

The paper's claims quantify over *every* admissible run of the
Chandra–Toueg model (Appendix A), yet a seeded shuffle only ever
exercises one benign schedule per seed: links behave FIFO with zero
delay, detector oracles answer with ground truth, and crashes land at a
single instant.  A :class:`FaultPlan` names a *specific adversary* —
a finite set of :class:`FaultEvent` perturbations, each confined to a
bounded time window — that the execution hosts replay deterministically
(see :mod:`repro.faults.injector`).

Plans are designed like :class:`repro.workloads.spec.ScenarioSpec`:
frozen, hashable, canonically ordered, JSON-round-trippable value
objects.  Two equal plans describe byte-identical perturbations;
:meth:`FaultPlan.plan_hash` is the content address campaign rows,
triage lines and repro files carry.

Admissibility by construction
=============================

Every event kind below stays *inside* the model's admissibility
conditions, so a plan can make a run arbitrarily unpleasant but never
unfair:

* link events (``link_delay``, ``link_reorder``, ``link_dup``,
  ``link_drop``) perturb the shared message buffer within fair-lossy
  semantics — delays are finite, reordering is bounded to a window,
  duplication has a finite budget, and a dropped datagram is always
  retransmitted (a drop without retransmission would violate the
  fairness condition that every message addressed to a process taking
  infinitely many steps is eventually received);
* detector events (``sigma_noise``, ``omega_late``, ``gamma_delay``)
  produce histories that still satisfy the detector class properties:
  ``Sigma`` noise pins samples to the *full scope* (any two samples
  still intersect, and Liveness only constrains the infinite suffix),
  ``omega_late`` delays stabilization by a finite amount (Leadership is
  an eventual property), and ``gamma_delay`` adds finite detection lag;
* ``crash_burst`` adds crashes — every environment considered in §5.2
  is closed under early/extra crashes, and monotonicity is preserved by
  construction (:meth:`repro.model.FailurePattern.with_crash`);
* ``churn`` suspends processes for a finite window, which is just
  asynchrony (any finite step delay is an admissible schedule);
* recovery events (``partition``, ``crash_recover``, ``link_flaky``)
  extend the axis with healing: a ``partition`` splits the process set
  into two components for a bounded window and *retransmits every
  cut-crossing datagram at heal time* (fair lossy by construction), a
  ``crash_recover`` crashes a process and rejoins it from a snapshot of
  its durable substrate state at the window close (the base pattern's
  own crashes are never resurrected), and ``link_flaky`` drops matching
  datagrams probabilistically inside the window with an *unconditional*
  per-datagram retransmission shortly after the drop.

The *finite horizon* is the load-bearing invariant: every event declares
when it is over, :meth:`FaultPlan.horizon` is the time by which the
whole plan is spent, and the execution hosts fold that horizon into
their settle horizon so quiescence is never declared mid-chaos.  The
:mod:`repro.faults.injector` auditor re-checks the dynamic half of these
promises after every run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro._content import content_hash
from repro.model.errors import ModelError
from repro.model.failures import Time

#: Bumped on breaking changes to the plan JSON layout.
PLAN_SCHEMA_VERSION = 1

#: Event kinds that perturb the shared message buffer (kernel backend).
LINK_KINDS = ("link_delay", "link_reorder", "link_dup", "link_drop")

#: Event kinds that perturb the failure-detector histories.
DETECTOR_KINDS = ("sigma_noise", "omega_late", "gamma_delay")

#: Event kinds that perturb the failure pattern / the schedule itself.
SCHEDULE_KINDS = ("crash_burst", "churn")

#: Recovery-aware kinds (healing partitions, crash–recovery, flaky
#: links requiring retransmission).  Kept out of :data:`LINK_KINDS` /
#: :data:`SCHEDULE_KINDS` so the frozen nemesis draw streams of the
#: pre-existing named mixes are untouched.
RECOVERY_KINDS = ("partition", "crash_recover", "link_flaky")

#: Every supported injector kind.
EVENT_KINDS = LINK_KINDS + DETECTOR_KINDS + SCHEDULE_KINDS + RECOVERY_KINDS


class FaultPlanError(ModelError):
    """An inadmissible or malformed fault plan."""


def _event_key(event: "FaultEvent") -> Tuple:
    """Total order over events (None fields sort before any value)."""
    return (
        event.kind,
        event.start,
        event.until,
        event.amount,
        -1 if event.src is None else event.src,
        -1 if event.dst is None else event.dst,
        "" if event.group is None else event.group,
        event.targets,
    )


@dataclass(frozen=True)
class FaultEvent:
    """One bounded perturbation.

    A deliberately *flat* record — one dataclass for every kind, with
    unused fields at their defaults — so plans stay trivially hashable,
    JSON-stable and easy to slice for delta debugging (the shrinker
    removes events, never edits fields).

    Field meaning by kind:

    ``link_delay``
        datagrams sent on the matching link during ``[start, until)``
        become receivable only ``amount`` rounds after their send.
    ``link_reorder``
        receives at ``dst`` during ``[start, until)`` extract a random
        datagram among the first ``amount`` receivable ones (seeded
        injector RNG) instead of the FIFO head.
    ``link_dup``
        up to ``amount`` matching datagrams sent during the window are
        duplicated once (bounded at-least-once delivery).
    ``link_drop``
        up to ``amount`` matching datagrams sent during the window are
        dropped; the link retransmits each at the window close (fair
        lossy: the drop is finite and the retransmission unconditional).
    ``sigma_noise``
        ``Sigma_P`` samples for scopes inside ``group`` (every scope
        when ``group`` is None) are pinned to the full scope during
        ``[start, until)`` — transient false information that still
        satisfies Intersection, and Liveness on the suffix.
    ``omega_late``
        ``Omega_group`` stabilizes no earlier than ``until``; before
        that the reported leader may rotate among alive members.
    ``gamma_delay``
        the gamma oracle's detection lag grows by ``amount``.
    ``crash_burst``
        process index ``targets[i]`` crashes at ``start + i * amount``
        (a staggered burst rather than a single instant).
    ``churn``
        processes ``targets`` take no steps during ``[start, until)``.
    ``partition``
        during ``[start, until)`` the process set is split into the
        component ``targets`` and its complement; every datagram
        crossing the cut is dropped and retransmitted at the heal time
        ``until`` (plus one round of transit).
    ``crash_recover``
        process ``targets[0]`` crashes at ``start`` and rejoins at
        ``until`` from a snapshot of its durable substrate state (the
        volatile state of in-flight protocol phases is lost).
    ``link_flaky``
        datagrams on the matching link sent during ``[start, until)``
        are dropped with probability one half (seeded injector RNG);
        every drop is retransmitted within ``1 + amount`` rounds —
        probabilistic loss that *requires* retransmission to stay
        fair lossy.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        src: 1-based sender index for link events (None = any sender).
        dst: 1-based receiver index for link events (None = any).
        group: group name scoping detector events (None = every scope).
        start: first time (inclusive) the event is active.
        until: first time the event is over; must be finite and
            ``>= start`` (kinds without a window leave it at 0).
        amount: kind-specific magnitude (delay rounds, duplicate budget,
            reorder window, extra lag, burst stagger gap).
        targets: 1-based process indices for ``crash_burst``/``churn``.
    """

    kind: str
    src: Optional[int] = None
    dst: Optional[int] = None
    group: Optional[str] = None
    start: Time = 0
    until: Time = 0
    amount: int = 0
    targets: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{EVENT_KINDS}"
            )
        if self.start < 0 or self.until < 0:
            raise FaultPlanError(f"{self.kind}: negative time window")
        if self.amount < 0:
            raise FaultPlanError(f"{self.kind}: negative amount")
        if (
            self.kind in LINK_KINDS
            or self.kind in RECOVERY_KINDS
            or self.kind in ("sigma_noise", "churn")
        ):
            if self.until < self.start:
                raise FaultPlanError(
                    f"{self.kind}: window [{self.start}, {self.until}) "
                    "is empty the wrong way around"
                )
        if self.kind in ("crash_burst", "churn", "partition", "crash_recover"):
            if not self.targets:
                raise FaultPlanError(f"{self.kind}: needs target processes")
            if len(set(self.targets)) != len(self.targets):
                raise FaultPlanError(f"{self.kind}: duplicate targets")
        elif self.targets:
            raise FaultPlanError(f"{self.kind}: takes no targets")
        if self.kind == "link_reorder" and self.amount < 2:
            raise FaultPlanError(
                "link_reorder: amount is the pick window and must be >= 2"
            )
        if self.kind == "crash_recover":
            if len(self.targets) != 1:
                raise FaultPlanError(
                    "crash_recover: exactly one victim per event"
                )
            if self.until <= self.start:
                raise FaultPlanError(
                    "crash_recover: the rejoin must come strictly after "
                    "the crash"
                )

    # -- Window queries (the injector's hot predicates) -------------------

    def active(self, t: Time) -> bool:
        """Whether ``t`` falls inside the event's ``[start, until)``."""
        return self.start <= t < self.until

    def ends_by(self) -> Time:
        """The first time at which this event can no longer perturb.

        A ``link_delay`` sent at ``until - 1`` is receivable at
        ``until - 1 + amount``; a ``link_drop`` retransmits at ``until``
        plus one round of transit; a ``crash_burst`` finishes its
        stagger at ``start + (len - 1) * amount``.  The plan horizon is
        the max over events.
        """
        if self.kind == "link_delay":
            return max(self.until, self.until - 1 + self.amount + 1)
        if self.kind in ("link_drop", "partition", "crash_recover"):
            # Heal-time retransmissions (partition) land at ``until``
            # plus transit; a recovered process needs a round past its
            # rejoin before quiescence can be trusted.
            return self.until + 1
        if self.kind == "link_flaky":
            # The last in-window drop (at ``until - 1``) retransmits no
            # later than ``until + amount``; add one round of transit.
            return self.until + self.amount + 1
        if self.kind == "crash_burst":
            return self.start + (len(self.targets) - 1) * self.amount + 1
        if self.kind == "gamma_delay":
            # Lag shifts detection; the engine folds it into its own
            # settle time, so the event itself is over immediately.
            return 0
        if self.kind == "omega_late":
            return self.until
        return self.until

    def matches_link(self, src_index: int, dst_index: int) -> bool:
        """Whether a ``src -> dst`` datagram falls under this event."""
        return (self.src is None or self.src == src_index) and (
            self.dst is None or self.dst == dst_index
        )

    def cuts(self, src_index: int, dst_index: int) -> bool:
        """Whether a ``src -> dst`` datagram crosses this partition's
        cut (exactly one endpoint inside the ``targets`` component)."""
        return (src_index in self.targets) != (dst_index in self.targets)

    # -- Serialization ----------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """A compact JSON dict (defaults omitted); inverse of from_json."""
        body: Dict[str, Any] = {"kind": self.kind}
        if self.src is not None:
            body["src"] = self.src
        if self.dst is not None:
            body["dst"] = self.dst
        if self.group is not None:
            body["group"] = self.group
        if self.start:
            body["start"] = self.start
        if self.until:
            body["until"] = self.until
        if self.amount:
            body["amount"] = self.amount
        if self.targets:
            body["targets"] = list(self.targets)
        return body

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FaultEvent":
        return cls(
            kind=data["kind"],
            src=data.get("src"),
            dst=data.get("dst"),
            group=data.get("group"),
            start=int(data.get("start", 0)),
            until=int(data.get("until", 0)),
            amount=int(data.get("amount", 0)),
            targets=tuple(int(i) for i in data.get("targets", ())),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A finite set of admissible perturbations, canonically ordered.

    Attributes:
        events: the perturbations, stored sorted so two plans built from
            the same events in any order compare (and hash) equal.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        canonical = tuple(sorted(self.events, key=_event_key))
        object.__setattr__(self, "events", canonical)

    # -- Introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def is_empty(self) -> bool:
        return not self.events

    def horizon(self) -> Time:
        """The first time by which every perturbation is provably over.

        Execution hosts fold this into their settle horizon: quiescence
        (and detector stability) is only trusted past it, which is what
        keeps a plan from silently truncating a run mid-perturbation.
        """
        return max((event.ends_by() for event in self.events), default=0)

    def by_kind(self, *kinds: str) -> Tuple[FaultEvent, ...]:
        """The plan's events of the given kinds, in canonical order."""
        return tuple(e for e in self.events if e.kind in kinds)

    # -- Derivation (shrinker + explorer mutations) -----------------------

    def subset(self, indices: Iterable[int]) -> "FaultPlan":
        """The sub-plan keeping only the events at ``indices``."""
        keep = set(indices)
        return FaultPlan(
            tuple(e for i, e in enumerate(self.events) if i in keep)
        )

    def without(self, event: FaultEvent) -> "FaultPlan":
        """The plan with one event removed (first occurrence)."""
        events = list(self.events)
        events.remove(event)
        return FaultPlan(tuple(events))

    def adding(self, event: FaultEvent) -> "FaultPlan":
        """The plan with one event added (idempotent on duplicates).

        The event has already passed ``FaultEvent.__post_init__``, so
        the result is admissible by construction — the explorer's add
        mutation never needs a separate validity check.
        """
        if event in self.events:
            return self
        return FaultPlan(self.events + (event,))

    def replacing(self, old: FaultEvent, new: FaultEvent) -> "FaultPlan":
        """The plan with ``old`` swapped for ``new`` (retime/retarget).

        Raises :class:`FaultPlanError` when ``old`` is absent — a
        mutation over a stale parent is a bug, not a no-op.
        """
        if old not in self.events:
            raise FaultPlanError(f"replacing: {old!r} not in plan")
        events = list(self.events)
        events[events.index(old)] = new
        return FaultPlan(tuple(events))

    def spliced(
        self,
        other: "FaultPlan",
        keep_self: Iterable[int],
        keep_other: Iterable[int],
    ) -> "FaultPlan":
        """A crossover child: chosen events of ``self`` + ``other``.

        The explorer's splice mutation — both parents are admissible and
        admissibility is closed under union (every event is individually
        bounded and kinds do not interact in ``__post_init__``), so the
        child is admissible by construction.  Duplicate events collapse
        through canonical ordering's sibling, set union.
        """
        mine = set(keep_self)
        theirs = set(keep_other)
        merged = {
            e for i, e in enumerate(self.events) if i in mine
        } | {e for i, e in enumerate(other.events) if i in theirs}
        return FaultPlan(tuple(merged))

    # -- Serialization ----------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA_VERSION,
            "events": [event.to_json() for event in self.events],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            events=tuple(
                FaultEvent.from_json(event) for event in data["events"]
            )
        )

    def plan_hash(self) -> str:
        """Content address of the plan (sha256 hex).

        The schema version is excluded for the same reason
        :meth:`repro.workloads.spec.ScenarioSpec.spec_hash` excludes it:
        additive schema bumps must not reshuffle the addresses of plans
        they do not affect.
        """
        body = self.to_json()
        body.pop("schema", None)
        return content_hash(body)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.events:
            return "FaultPlan(benign)"
        kinds: Dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        summary = ", ".join(f"{k}x{n}" for k, n in sorted(kinds.items()))
        return f"FaultPlan({summary}; horizon={self.horizon()})"


def plan_of(*events: FaultEvent) -> FaultPlan:
    """Convenience constructor: a plan from loose events."""
    return FaultPlan(tuple(events))
