"""Nemesis fault injection: perturb runs *within* model admissibility.

The paper's claims quantify over every admissible schedule; the seeded
shuffle alone exercises one benign schedule per seed.  This package
closes the gap:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultEvent`,
  the frozen, hashable, JSON-round-trippable description of a
  perturbation (the nemesis analogue of
  :class:`repro.workloads.spec.ScenarioSpec`);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, one plan bound
  to one run, consulted by the scheduler (churn) and the message buffer
  (link faults), mapping the run's ``mu`` to its perturbed components
  (detector noise), with a post-run admissibility audit;
* :mod:`repro.faults.nemesis` — seeded random plan generation from
  the named mixes;
* :mod:`repro.faults.shrink` — the ddmin counterexample shrinker and
  self-contained repro files (imported lazily: it depends on the
  workloads layer, which in turn imports :mod:`repro.faults.plan`).

The package has no command line: ``python -m repro.campaign --grid
nemesis`` sweeps the nemesis grid (a ``Campaign`` whose ``faults`` axis
holds mix names), and ``examples/shrink_demo.py`` runs the shrinker.
"""
