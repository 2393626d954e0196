"""Nemesis fault injection: perturb runs *within* model admissibility.

The paper's claims quantify over every admissible schedule; the seeded
shuffle alone exercises one benign schedule per seed.  This package
closes the gap:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`,
  the frozen, hashable, JSON-round-trippable description of a
  perturbation (the nemesis analogue of
  :class:`repro.workloads.ScenarioSpec`);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, one plan bound
  to one run, consulted by the scheduler (churn) and the message buffer
  (link faults), mapping the run's ``mu`` to its perturbed components
  (detector noise), with a post-run admissibility audit;
* :mod:`repro.faults.nemesis` — seeded random plan generation from
  the named mixes;
* :mod:`repro.faults.shrink` — the ddmin counterexample shrinker and
  self-contained repro files (imported lazily: it depends on the
  workloads layer, which in turn imports :mod:`repro.faults.plan`).

Import :class:`FaultPlan`/:class:`FaultInjector` from here; import the
harnesses from their submodules (``repro.faults.nemesis``,
``repro.faults.shrink``) to keep the layering acyclic.
"""

from repro.faults.injector import (
    AdmissibilityError,
    FaultInjector,
    SendVerdict,
    derive_injector_seed,
    group_index_map,
    injector_for,
)
from repro.faults.plan import (
    DETECTOR_KINDS,
    EVENT_KINDS,
    LINK_KINDS,
    PLAN_SCHEMA_VERSION,
    SCHEDULE_KINDS,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    plan_of,
)

__all__ = [
    "AdmissibilityError",
    "DETECTOR_KINDS",
    "EVENT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "LINK_KINDS",
    "PLAN_SCHEMA_VERSION",
    "SCHEDULE_KINDS",
    "SendVerdict",
    "derive_injector_seed",
    "group_index_map",
    "injector_for",
    "plan_of",
]
