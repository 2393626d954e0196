"""Counterexample shrinking: ddmin over fault-plan events.

A nemesis campaign that turns a row red hands you a plan of a dozen
events; most of them are noise.  :func:`shrink_plan` is classic delta
debugging (Zeller's ddmin) over the plan's event set: it repeatedly
re-runs the scenario under event subsets and their complements, keeping
the smallest plan whose run still *fails* — where "fails" is any
predicate, by default "some §2.2 property checker reports a violation
(or the run never proves anything because it was truncated)".  The
shrinker is pure ddmin over that predicate with an in-run memo; a red
sweep's triage passes the sweep's own judgement
(:func:`repro.campaign.triage.triage` — one cell through the executor's
cache-fronted cell path, its row read by ``violated_properties``), and
the named :data:`HARNESSES` serve the ``"broadcast"`` demo and the
replay of committed repro files.

The minimized counterexample is emitted as a **repro file**: one JSON
document carrying the spec (with the minimal plan inlined), its content
hash, the seed and the plan hash — everything a reader needs to replay
the violation with :func:`replay_repro`, on any checkout, with no other
context.  Because every run is a pure function of the spec (injector
randomness is derived from ``(plan hash, seed)``), the replay is
deterministic.

This module sits above the workloads layer, so import it as
``repro.faults.shrink`` — it is deliberately not re-exported by
:mod:`repro.faults` (see the package docstring on layering).
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.props.batch import verdicts_ok
from repro.workloads.runner import (
    ScenarioResult,
    _broadcast_deployment,
    run_deployment,
    run_scenario,
    triage_record,
)
from repro.workloads.spec import ScenarioSpec

#: ``(spec-with-plan) -> True when the run still violates``.
Predicate = Callable[[ScenarioSpec], bool]


# -- Harnesses ----------------------------------------------------------------
#
# A harness is ``run_deployment`` with a builder, judged by the result's
# verdicts and truncation.  ``"scenario"`` is the real system (Algorithm
# 1 / the kernel's replicated logs, picked from ``spec.backend``);
# ``"broadcast"`` is the §2.3 non-genuine baseline — atomic multicast
# over a global atomic broadcast — whose Minimality violation is
# intrinsic, which makes it the canonical shrinker fixture: the minimal
# failing plan is the *empty* plan.  Repro files name their harness so a
# replay judges the run the same way the hunt did.

HARNESSES: Dict[str, Callable[[ScenarioSpec], ScenarioResult]] = {
    "scenario": run_scenario,
    "broadcast": functools.partial(run_deployment, build=_broadcast_deployment),
}


def run_harness(harness: str, spec: ScenarioSpec) -> Dict[str, Any]:
    """Run ``spec`` under a named harness; returns verdicts + truncation."""
    try:
        runner = HARNESSES[harness]
    except KeyError:
        raise ValueError(
            f"unknown harness {harness!r}; pick from {sorted(HARNESSES)}"
        ) from None
    result = runner(spec)
    return {"verdicts": result.verdicts(), "truncated": result.truncated}


def harness_violates(harness: str) -> Predicate:
    """The failure predicate of a named harness.

    Truncation counts as failing: a run cut short by its budget cannot
    witness Termination, and a shrinker that "fixes" a violation by
    making the run inconclusive has minimized the wrong thing.
    """

    def violates(spec: ScenarioSpec) -> bool:
        outcome = run_harness(harness, spec)
        return not verdicts_ok(outcome["verdicts"]) or outcome["truncated"]

    return violates


class PlanShrinker:
    """ddmin over the events of a fault plan.

    Args:
        spec: the scenario (its ``faults`` field is overwritten by each
            candidate plan during the search).
        violates: the failure predicate; defaults to ``harness``'s
            (:func:`harness_violates`).  Must be deterministic — runs are,
            so any predicate built on :func:`run_scenario` qualifies.
        harness: the named predicate when ``violates`` is not given.

    Attributes:
        probes: ``_fails`` queries, counting every memo hit.
        evaluations: predicate calls actually made (memo misses).
        cache_hits: probes answered from the in-run memo.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        violates: Optional[Predicate] = None,
        harness: str = "scenario",
    ) -> None:
        self.spec = spec
        self.violates = violates or harness_violates(harness)
        self.probes = 0
        self.evaluations = 0
        self.cache_hits = 0
        self._memo: Dict[str, bool] = {}

    def _fails(self, plan: FaultPlan) -> bool:
        self.probes += 1
        key = plan.plan_hash()
        if key in self._memo:
            self.cache_hits += 1
            return self._memo[key]
        self.evaluations += 1
        verdict = self._memo[key] = self.violates(self.spec.faulted(plan))
        return verdict

    def stats(self) -> Dict[str, int]:
        """The search's cost accounting (surfaced in repro payloads)."""
        return {
            "probes": self.probes,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
        }

    def shrink(self, plan: FaultPlan) -> FaultPlan:
        """The smallest event subset of ``plan`` that still fails.

        Classic ddmin with complement reduction: partition the events
        into ``n`` chunks, try each chunk and each complement, recurse
        on whatever still fails with the finest granularity that makes
        progress.  The empty plan is tested first — when the violation
        is intrinsic to the scenario (a non-genuine baseline, a broken
        protocol), the minimal counterexample is *no fault at all*, and
        reporting anything bigger would be a lie.
        """
        if not self._fails(plan):
            raise ValueError(
                "shrink_plan needs a failing starting point; the given "
                "plan's run passes every checker"
            )
        empty = FaultPlan()
        if self._fails(empty):
            return empty
        events = list(plan.events)
        n = 2
        while len(events) >= 2:
            chunks = _partition(events, n)
            reduced = False
            for chunk in chunks:
                candidate = FaultPlan(tuple(chunk))
                if self._fails(candidate):
                    events = list(chunk)
                    n = 2
                    reduced = True
                    break
            if not reduced:
                for index in range(len(chunks)):
                    complement = [
                        e
                        for j, chunk in enumerate(chunks)
                        for e in chunk
                        if j != index
                    ]
                    if complement and self._fails(FaultPlan(tuple(complement))):
                        events = complement
                        n = max(2, n - 1)
                        reduced = True
                        break
            if not reduced:
                if n >= len(events):
                    break
                n = min(len(events), n * 2)
        return FaultPlan(tuple(events))


def _partition(events: Sequence[Any], n: int) -> List[List[Any]]:
    """``events`` split into ``n`` near-equal contiguous chunks."""
    chunks: List[List[Any]] = []
    size, remainder = divmod(len(events), n)
    start = 0
    for index in range(n):
        end = start + size + (1 if index < remainder else 0)
        if end > start:
            chunks.append(list(events[start:end]))
        start = end
    return chunks


def shrink_plan(
    spec: ScenarioSpec,
    plan: Optional[FaultPlan] = None,
    violates: Optional[Predicate] = None,
    harness: str = "scenario",
) -> Tuple[FaultPlan, PlanShrinker]:
    """Minimize ``plan`` (default: the spec's own) for ``spec``.

    Returns the minimal failing plan and the shrinker (for its cost
    stats).  ``harness`` selects the failure predicate when ``violates``
    is not given.  Raises :class:`ValueError` when the starting plan
    does not fail — there is nothing to shrink.
    """
    if plan is None:
        plan = spec.faults or FaultPlan()
    shrinker = PlanShrinker(spec, violates, harness=harness)
    return shrinker.shrink(plan), shrinker


# -- Repro files --------------------------------------------------------------


def repro_payload(
    spec: ScenarioSpec,
    minimal: FaultPlan,
    original: FaultPlan,
    harness: str = "scenario",
    shrinker: Optional[PlanShrinker] = None,
) -> Dict[str, Any]:
    """The self-contained repro document for a minimized counterexample.

    When the ``shrinker`` that produced ``minimal`` is passed, the
    payload carries its cost accounting under ``"shrink"`` — probes,
    actual evaluations, cache hits and the event-count reduction ratio —
    so a soak report shows what each repro cost to minimize.
    """
    final = spec.faulted(None if minimal.is_empty() else minimal)
    outcome = run_harness(harness, final)
    payload = {
        "kind": "fault-repro",
        "harness": harness,
        "triage": triage_record(final),
        "original_plan_hash": original.plan_hash(),
        "original_events": len(original),
        "minimal_events": len(minimal),
        "verdicts": outcome["verdicts"],
        "truncated": outcome["truncated"],
        "spec": final.to_json(),
    }
    if shrinker is not None:
        stats = shrinker.stats()
        stats["reduction"] = (
            1.0 - len(minimal) / len(original) if len(original) else 0.0
        )
        payload["shrink"] = stats
    return payload


def write_repro(path: str, payload: Dict[str, Any]) -> None:
    """Write a repro document as canonical, diff-stable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_repro(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def replay_repro(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Re-run the scenario a repro document describes, the same way.

    Returns the fresh outcome (verdicts + truncation) under the
    document's harness; determinism makes comparison with
    ``payload["verdicts"]`` exact.
    """
    spec = ScenarioSpec.from_json(payload["spec"])
    return run_harness(payload.get("harness", "scenario"), spec)
