"""Parallel scenario sweeps over declarative campaign grids.

The pipeline is ``spec -> executor -> aggregator``:

1. a :class:`Campaign` expands a declarative grid into frozen, hashable
   :class:`repro.workloads.spec.ScenarioSpec` values;
2. :func:`run_campaign` executes them — serially, or fanned out over a
   :class:`concurrent.futures.ProcessPoolExecutor` — with per-scenario
   failure isolation and deterministic, worker-count-independent row
   ordering;
3. the streaming :class:`repro.metrics.sweep.SweepAggregator` folds rows
   into campaign totals on the returned :class:`CampaignReport`, and
   ``run_campaign(out_dir=...)`` writes the sweep as a ``manifest.json``
   + ``results.jsonl`` pair whose bytes do not depend on how the sweep
   was executed.

The scale-out layer rides on the same pipeline: a
:class:`repro.campaign.cache.CampaignCache` replays previously executed
cells byte-identically (``run_campaign(cache=...)``) — which is also how
an interrupted sweep continues: rerun it over the same cache — and
``out_dir=`` appends each row to the artifact as it arrives.

:func:`repro.campaign.triage.triage` shrinks and deduplicates the
violating rows of a red sweep through the same cell path and cache.

``python -m repro.campaign`` runs the built-in smoke and nemesis sweeps
(see :mod:`repro.campaign.__main__`).
"""
