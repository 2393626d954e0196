"""Fault/schedule exploration: random search, shrink and triage.

The campaign runner sweeps axes someone declared; the explorer searches
the fault space nobody enumerated.  :mod:`repro.explore.driver` draws
fresh adversaries — a random base scenario, a random schedule seed and
a :func:`repro.faults.nemesis.random_plan` plan from a random named mix
— runs them through the cached campaign executor, auto-shrinks every
violation with the ddmin :class:`repro.faults.shrink.PlanShrinker`,
writes self-contained repro files and deduplicates triage records by
``(harness, violated properties, shrunk plan hash)``.

``python -m repro.explore`` is the CLI; the nightly ``explore-soak``
CI job runs it under a wall-clock budget and fails on any violation
(there is no allow-list of known findings).
"""
