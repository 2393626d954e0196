"""The random nemesis: seeded adversarial plan generation.

A nemesis campaign sweeps Algorithm 1 (or the kernel's replicated logs)
across *random admissible perturbations*: for each seed,
:func:`random_plan` draws a :class:`repro.faults.plan.FaultPlan` from one
of the named :data:`MIXES` (link-level chaos, detector-level noise, or
everything at once) and the campaign machinery runs the spec under it.
Everything is derived from the seed — generating the same mix at the
same seed twice yields the identical plan, so a red row names its plan
by hash and the plan is reconstructible from the row alone.

Intensities are deliberately *smoke-level*: windows of a handful of
rounds, budgets of a few datagrams.  The point of the nemesis is not
volume but coverage — schedules the benign seeded shuffle would never
produce — and every drawn plan stays inside the model's admissibility
envelope by construction (finite windows, drop-with-retransmit, noise
pinned to full scopes).
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.faults.plan import FaultEvent, FaultPlan
from repro.model.errors import ModelError

#: The named injector mixes a nemesis campaign sweeps.  ``"recovery"``
#: and ``"chaos"`` are additive: the pre-existing names keep their
#: seeded draw streams byte-identical (each name seeds its own RNG), so
#: every frozen plan hash of the old mixes survives the new kinds.
MIXES = ("links", "detectors", "full", "recovery", "chaos")


def _link_events(
    rng: random.Random, process_count: int, horizon: int
) -> List[FaultEvent]:
    """A handful of link-level perturbations inside ``[1, horizon)``."""
    events: List[FaultEvent] = []
    start = rng.randint(1, max(1, horizon // 3))
    until = start + rng.randint(3, 8)
    events.append(
        FaultEvent(
            kind="link_delay", start=start, until=until,
            amount=rng.randint(1, 4),
        )
    )
    if rng.random() < 0.7:
        start = rng.randint(1, max(1, horizon // 2))
        events.append(
            FaultEvent(
                kind="link_reorder", start=start,
                until=start + rng.randint(3, 8), amount=rng.randint(2, 4),
            )
        )
    if rng.random() < 0.5:
        start = rng.randint(1, max(1, horizon // 2))
        events.append(
            FaultEvent(
                kind="link_dup", start=start,
                until=start + rng.randint(2, 6), amount=rng.randint(1, 3),
            )
        )
    if rng.random() < 0.5:
        start = rng.randint(1, max(1, horizon // 2))
        events.append(
            FaultEvent(
                kind="link_drop", start=start,
                until=start + rng.randint(2, 6), amount=rng.randint(1, 3),
            )
        )
    return events


def _detector_events(
    rng: random.Random,
    groups: Sequence[str],
    horizon: int,
) -> List[FaultEvent]:
    """Detector-noise windows: Sigma false suspicion, late Omega,
    delayed gamma — each scoped to a random group (or globally)."""
    events: List[FaultEvent] = []
    scope = rng.choice((None,) + tuple(groups)) if groups else None
    start = rng.randint(1, max(1, horizon // 3))
    events.append(
        FaultEvent(
            kind="sigma_noise", group=scope, start=start,
            until=start + rng.randint(2, 6),
        )
    )
    if rng.random() < 0.7:
        scope = rng.choice((None,) + tuple(groups)) if groups else None
        events.append(
            FaultEvent(
                kind="omega_late", group=scope,
                until=rng.randint(3, horizon),
            )
        )
    if rng.random() < 0.5:
        events.append(
            FaultEvent(kind="gamma_delay", amount=rng.randint(1, 3))
        )
    return events


def _schedule_events(
    rng: random.Random, process_count: int, horizon: int
) -> List[FaultEvent]:
    """Participation churn."""
    events: List[FaultEvent] = []
    if process_count >= 2 and rng.random() < 0.6:
        victim = rng.randint(1, process_count)
        start = rng.randint(1, max(1, horizon // 2))
        events.append(
            FaultEvent(
                kind="churn", start=start,
                until=start + rng.randint(2, 5), targets=(victim,),
            )
        )
    return events


def _recovery_events(
    rng: random.Random, process_count: int, horizon: int
) -> List[FaultEvent]:
    """Recovery-axis events — each admissible by construction: the
    partition heals at its window close (crossing wakes retransmit at
    heal time), the crashed process rejoins from its durable snapshot,
    and flaky drops carry bounded retransmission deadlines."""
    events: List[FaultEvent] = []
    if process_count >= 2:
        size = rng.randint(1, max(1, process_count // 2))
        component = tuple(
            sorted(rng.sample(range(1, process_count + 1), size))
        )
        start = rng.randint(1, max(1, horizon // 2))
        events.append(
            FaultEvent(
                kind="partition", start=start,
                until=start + rng.randint(2, 6), targets=component,
            )
        )
    if process_count >= 3 and rng.random() < 0.6:
        victim = rng.randint(1, process_count)
        start = rng.randint(2, max(2, horizon // 2))
        events.append(
            FaultEvent(
                kind="crash_recover", start=start,
                until=start + rng.randint(3, 8), targets=(victim,),
            )
        )
    if rng.random() < 0.6:
        start = rng.randint(1, max(1, horizon // 2))
        events.append(
            FaultEvent(
                kind="link_flaky", start=start,
                until=start + rng.randint(2, 5), amount=rng.randint(0, 3),
            )
        )
    return events


def random_plan(
    seed: int,
    mix: str = "full",
    process_count: int = 0,
    groups: Sequence[str] = (),
    horizon: int = 12,
) -> FaultPlan:
    """Draw one admissible fault plan from a named mix.

    Args:
        seed: the draw is a pure function of ``(seed, mix, …)``; each
            mix seeds its own RNG stream (the frozen-hash test pins
            them).
        mix: ``"links"`` (delay/reorder/dup/drop), ``"detectors"``
            (sigma noise, late omega, gamma delay), ``"full"`` (both,
            plus churn), ``"recovery"`` (partition / crash-recover /
            flaky link) or ``"chaos"`` (everything).
        process_count: universe size (for churn victim selection).
        groups: group names (for detector-noise scoping).
        horizon: rough upper bound for window starts; actual plan
            horizons run a few rounds past it (windows opened near the
            bound still close).
    """
    if mix not in MIXES:
        raise ModelError(f"unknown nemesis mix {mix!r}; pick from {MIXES}")
    rng = random.Random(f"nemesis:{mix}:{seed}")
    events: List[FaultEvent] = []
    if mix in ("links", "full", "chaos"):
        events.extend(_link_events(rng, process_count, horizon))
    if mix in ("detectors", "full", "chaos"):
        events.extend(_detector_events(rng, groups, horizon))
    if mix in ("full", "chaos"):
        events.extend(_schedule_events(rng, process_count, horizon))
    if mix in ("recovery", "chaos"):
        events.extend(_recovery_events(rng, process_count, horizon))
    return FaultPlan(tuple(events))
