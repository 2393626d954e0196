"""Parallel scenario sweeps over declarative campaign grids.

The pipeline is ``spec -> executor -> aggregator``:

1. a :class:`Campaign` expands a declarative grid into frozen, hashable
   :class:`repro.workloads.spec.ScenarioSpec` values;
2. :func:`run_campaign` executes them — serially, or fanned out over a
   :class:`concurrent.futures.ProcessPoolExecutor` — one cell unit the
   same way in both: the cell runs under its own backstops (stall
   watchdog, wall-clock budget), its row is stored in the
   :class:`repro.campaign.cache.CampaignCache` where it ran, and rows
   come back in grid order whatever the worker count;
3. the streaming :class:`repro.metrics.sweep.SweepAggregator` folds rows
   into campaign totals on the returned :class:`CampaignReport`, and
   ``run_campaign(out_dir=...)`` writes the sweep as a ``manifest.json``
   + ``results.jsonl`` pair whose bytes do not depend on how the sweep
   was executed.

A cache hit replays the stored row byte-identically, which is also how
an interrupted sweep continues: rerun it over the same cache.
:func:`repro.campaign.triage.triage` shrinks and deduplicates the
violating rows of a red sweep through the same cell path, cache and
backstops.

``python -m repro.campaign`` runs the built-in smoke and nemesis sweeps
(see :mod:`repro.campaign.__main__`).
"""
