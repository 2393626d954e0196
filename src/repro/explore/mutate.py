"""The mutation engine: breed new scenarios from corpus parents.

Mutations act on the three adversary axes a scenario exposes:

* **fault-plan structure** — add a freshly drawn admissible event,
  remove one, retime/retarget/resize one (``dataclasses.replace``
  guarded by the :class:`FaultEvent` constructor, so an inadmissible
  mutation is retried as a different operator instead of producing a
  broken plan), or *splice* the plan with a second corpus parent's
  (AFL's crossover);
* **schedule seed** — jitter or reroll the engine scheduling seed (a
  different shuffle stream over the same adversary);
* **delay model** — for the async backend: switch the distribution
  kind, jitter its parameters, or grow/shrink/retune the slow-pairs
  set (the adversarial pair search of DESIGN.md §15, "Mutation").

Every operator is admissible by construction: fault events pass
``FaultEvent.__post_init__``, delay specs pass
``canonical_delay_spec``, and the spec itself re-validates in
``ScenarioSpec.__post_init__``.  The engine never mutates the workload
half of the spec (topology, sends, crashes, variant) — the explorer
searches the *adversary* space around fixed base scenarios, mirroring
how the nemesis campaign holds its cells fixed per backend.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, List, Optional, Sequence, Tuple

from repro.faults.plan import (
    DETECTOR_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    LINK_KINDS,
    RECOVERY_KINDS,
)
from repro.workloads.spec import ScenarioSpec

#: How many mutation operators one ``mutate`` call may stack (1-3, an
#: AFL-style havoc burst kept small because scenario runs are cheap but
#: not free).
MAX_STACK = 3


def random_event(
    rng: random.Random,
    process_count: int,
    groups: Sequence[str],
    horizon: int,
) -> FaultEvent:
    """Draw one admissible event of a uniformly chosen kind.

    Unlike :func:`repro.faults.nemesis.random_plan`, every kind is
    reachable — including ``crash_burst`` and ``churn``, which the
    named mixes draw rarely or never, and the recovery axis
    (``partition`` / ``crash_recover`` / ``link_flaky``).  That
    asymmetry is deliberate: kinds only the *guided* search injects are
    coverage pure random sampling cannot buy.
    """
    kind = rng.choice(
        LINK_KINDS + DETECTOR_KINDS + ("churn", "link_flaky")
        + (("crash_burst",) if process_count >= 3 else ())
        + (("partition",) if process_count >= 2 else ())
        + (("crash_recover",) if process_count >= 3 else ())
    )
    start = rng.randint(1, max(1, horizon))
    if kind == "link_flaky":
        return FaultEvent(
            kind=kind,
            start=start,
            until=start + rng.randint(2, 6),
            amount=rng.randint(0, 3),
        )
    if kind == "partition":
        size = rng.randint(1, max(1, process_count // 2))
        component = tuple(
            sorted(rng.sample(range(1, process_count + 1), size))
        )
        return FaultEvent(
            kind=kind,
            start=start,
            until=start + rng.randint(2, 8),
            targets=component,
        )
    if kind == "crash_recover":
        return FaultEvent(
            kind=kind,
            start=max(2, start),
            until=max(2, start) + rng.randint(3, 8),
            targets=(rng.randint(1, process_count),),
        )
    if kind in LINK_KINDS:
        amount = rng.randint(2, 4) if kind == "link_reorder" else rng.randint(1, 4)
        return FaultEvent(
            kind=kind,
            start=start,
            until=start + rng.randint(2, 8),
            amount=amount,
        )
    if kind == "sigma_noise":
        scope = rng.choice((None,) + tuple(groups)) if groups else None
        return FaultEvent(
            kind=kind, group=scope, start=start,
            until=start + rng.randint(2, 8),
        )
    if kind == "omega_late":
        scope = rng.choice((None,) + tuple(groups)) if groups else None
        return FaultEvent(
            kind=kind, group=scope, until=rng.randint(3, 2 * horizon),
        )
    if kind == "gamma_delay":
        return FaultEvent(kind=kind, amount=rng.randint(1, 4))
    if kind == "churn":
        victim = rng.randint(1, max(1, process_count))
        return FaultEvent(
            kind=kind, start=start,
            until=start + rng.randint(2, 6), targets=(victim,),
        )
    # crash_burst
    victim = rng.randint(1, process_count)
    return FaultEvent(
        kind="crash_burst",
        start=max(2, start),
        amount=rng.randint(1, 3),
        targets=(victim,),
    )


class MutationEngine:
    """Stacked random mutations over a spec's adversary axes.

    Args:
        process_count: universe size of the base topology (event
            targeting bounds).
        groups: group names (detector-event scoping).
        horizon: rough window bound for freshly drawn events.
        mutate_delay: whether the delay-model axis is in play (only
            meaningful for async-backend specs; the round backends
            ignore ``delay_model``, so mutating it there would burn
            iterations re-running identical cells under new hashes).
    """

    def __init__(
        self,
        process_count: int,
        groups: Sequence[str],
        horizon: int = 12,
        mutate_delay: bool = False,
    ) -> None:
        self.process_count = process_count
        self.groups = tuple(groups)
        self.horizon = horizon
        self.mutate_delay = mutate_delay

    # -- Plan operators ----------------------------------------------------

    def _op_add(self, plan: FaultPlan, rng: random.Random) -> FaultPlan:
        return plan.adding(
            random_event(rng, self.process_count, self.groups, self.horizon)
        )

    def _op_remove(self, plan: FaultPlan, rng: random.Random) -> FaultPlan:
        if plan.is_empty():
            return plan
        return plan.without(rng.choice(plan.events))

    def _op_tweak(self, plan: FaultPlan, rng: random.Random) -> FaultPlan:
        """Retime, retarget or resize one event (validity-guarded)."""
        if plan.is_empty():
            return plan
        event = rng.choice(plan.events)
        fields: dict = {}
        choice = rng.random()
        if choice < 0.4:  # retime: shift the window
            shift = rng.randint(-3, 6)
            fields["start"] = max(0, event.start + shift)
            if event.until:
                fields["until"] = max(fields["start"], event.until + shift)
        elif choice < 0.7:  # resize: amount / window length jitter
            if event.amount:
                fields["amount"] = max(1, event.amount + rng.randint(-1, 2))
            elif event.until > event.start:
                fields["until"] = event.start + max(
                    1, (event.until - event.start) + rng.randint(-2, 4)
                )
        else:  # retarget: scope the event differently
            if event.kind in LINK_KINDS:
                fields["src"] = rng.choice(
                    (None, rng.randint(1, max(1, self.process_count)))
                )
                fields["dst"] = rng.choice(
                    (None, rng.randint(1, max(1, self.process_count)))
                )
            elif event.group is not None or self.groups:
                fields["group"] = (
                    rng.choice((None,) + self.groups) if self.groups else None
                )
            elif event.targets:
                fields["targets"] = (
                    rng.randint(1, max(1, self.process_count)),
                )
        if not fields:
            return plan
        try:
            return plan.replacing(event, dataclasses.replace(event, **fields))
        except FaultPlanError:
            return plan  # the tweak left the envelope: keep the parent

    def _op_splice(
        self,
        plan: FaultPlan,
        rng: random.Random,
        other: Optional[FaultPlan],
    ) -> FaultPlan:
        if other is not None:
            # A partner drawn from another base may scope detector events
            # to groups this base's topology lacks: those do not transplant.
            other = FaultPlan(
                tuple(e for e in other.events if e.group in (None,) + self.groups)
            )
        if other is None or other.is_empty():
            return plan
        keep_self = [i for i in range(len(plan)) if rng.random() < 0.5]
        keep_other = [i for i in range(len(other)) if rng.random() < 0.5]
        if not keep_self and not keep_other:
            keep_other = [rng.randrange(len(other))]
        return plan.spliced(other, keep_self, keep_other)

    # -- Axis operators ----------------------------------------------------

    def _mutate_plan(
        self,
        spec: ScenarioSpec,
        rng: random.Random,
        partner: Optional[ScenarioSpec],
    ) -> ScenarioSpec:
        plan = spec.faults or FaultPlan()
        roll = rng.random()
        if roll < 0.40:
            plan = self._op_add(plan, rng)
        elif roll < 0.60:
            plan = self._op_remove(plan, rng)
        elif roll < 0.85:
            plan = self._op_tweak(plan, rng)
        else:
            plan = self._op_splice(
                plan, rng, partner.faults if partner is not None else None
            )
        return spec.faulted(None if plan.is_empty() else plan)

    def _mutate_seed(
        self, spec: ScenarioSpec, rng: random.Random
    ) -> ScenarioSpec:
        if rng.random() < 0.5:
            seed = spec.seed + rng.randint(1, 4)
        else:
            seed = rng.randrange(1 << 16)
        return dataclasses.replace(spec, seed=seed)

    def _mutate_delay(
        self, spec: ScenarioSpec, rng: random.Random
    ) -> ScenarioSpec:
        from repro.runtime.delay import canonical_delay_spec

        current: Tuple[Any, ...] = spec.delay_model or ("uniform", 0.1, 0.9)
        kind = current[0]
        roll = rng.random()
        if roll < 0.3:  # switch distribution kind
            new_kind = rng.choice(("fixed", "uniform", "exponential", "slow_pairs"))
            if new_kind == "fixed":
                candidate: Tuple[Any, ...] = ("fixed", round(rng.uniform(0.1, 2.0), 3))
            elif new_kind == "uniform":
                lo = round(rng.uniform(0.05, 0.5), 3)
                candidate = ("uniform", lo, round(lo + rng.uniform(0.1, 1.5), 3))
            elif new_kind == "exponential":
                candidate = (
                    "exponential",
                    round(rng.uniform(0.2, 2.0), 3),
                    round(rng.uniform(4.0, 12.0), 3),
                )
            else:
                candidate = self._random_slow_pairs(rng)
        elif kind == "slow_pairs":
            candidate = self._jitter_slow_pairs(current, rng)
        elif kind in ("uniform", "exponential", "fixed"):
            # parameter jitter, shape-preserving
            params = [
                round(max(0.01, float(p) * rng.uniform(0.5, 2.0)), 3)
                for p in current[1:]
            ]
            if kind == "uniform" and params[1] < params[0]:
                params[0], params[1] = params[1], params[0]
            candidate = (kind, *params)
        else:
            candidate = current
        try:
            return dataclasses.replace(
                spec, delay_model=canonical_delay_spec(candidate)
            )
        except Exception:
            return spec  # an out-of-envelope jitter keeps the parent

    def _random_slow_pairs(self, rng: random.Random) -> Tuple[Any, ...]:
        n = max(2, self.process_count)
        pairs = []
        for _ in range(rng.randint(1, 3)):
            src = rng.randint(1, n)
            dst = rng.randint(1, n)
            if src != dst:
                pairs.append((src, dst))
        if not pairs:
            pairs = [(1, 2)]
        return ("slow_pairs", round(rng.uniform(2.0, 8.0), 2), tuple(sorted(set(pairs))))

    def _jitter_slow_pairs(
        self, current: Tuple[Any, ...], rng: random.Random
    ) -> Tuple[Any, ...]:
        """The pair *search*: add a pair, drop one, or retune the factor."""
        factor = float(current[1])
        pairs = [tuple(p) for p in current[2]]
        roll = rng.random()
        n = max(2, self.process_count)
        if roll < 0.4:  # add a pair
            src, dst = rng.randint(1, n), rng.randint(1, n)
            if src != dst and (src, dst) not in pairs:
                pairs.append((src, dst))
        elif roll < 0.7 and len(pairs) > 1:  # drop a pair
            pairs.pop(rng.randrange(len(pairs)))
        else:  # factor jitter
            factor = round(max(1.5, factor * rng.uniform(0.5, 2.0)), 2)
        rest = tuple(current[3:])
        return ("slow_pairs", factor, tuple(sorted(set(pairs)))) + rest

    # -- Entry point -------------------------------------------------------

    def mutate(
        self,
        spec: ScenarioSpec,
        rng: random.Random,
        partner: Optional[ScenarioSpec] = None,
    ) -> ScenarioSpec:
        """One havoc burst: 1-3 stacked axis mutations of ``spec``.

        ``partner`` (a second corpus parent's spec) enables the splice
        operator.  The result always differs from the parent in at
        least one hashed axis unless every drawn operator no-opped (a
        possibility the driver tolerates — an identical child is a
        cache hit costing microseconds).
        """
        child = spec
        for _ in range(rng.randint(1, MAX_STACK)):
            axes = ["plan", "plan", "seed"]  # plan mutations dominate
            if self.mutate_delay and spec.backend == "async":
                axes.append("delay")
            axis = rng.choice(axes)
            if axis == "plan":
                child = self._mutate_plan(child, rng, partner)
            elif axis == "seed":
                child = self._mutate_seed(child, rng)
            else:
                child = self._mutate_delay(child, rng)
        return child
