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
cells byte-identically (``run_campaign(cache=...)``), ``out_dir=``
appends each row to the artifact as it arrives, ``resume=True``
continues an interrupted sweep from its first missing cell, and
``shard=(k, n)`` splits the grid by cache-key prefix for multi-host
sweeps.

``python -m repro.campaign`` runs a small built-in smoke sweep (see
:mod:`repro.campaign.__main__`).
"""

from repro.campaign.aggregate import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignReport,
    PartialScan,
    ResultsWriter,
    meta_line,
    row_line,
    scan_partial_results,
    summary_line,
    write_manifest,
)
from repro.campaign.cache import (
    CACHE_SCHEMA_VERSION,
    CampaignCache,
    ensure_cache,
    shard_cells,
    shard_of,
)
from repro.campaign.executor import MODES, execute_spec, run_campaign
from repro.campaign.grid import Campaign, CampaignCase, case

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CAMPAIGN_SCHEMA_VERSION",
    "Campaign",
    "CampaignCache",
    "CampaignCase",
    "CampaignReport",
    "MODES",
    "PartialScan",
    "ResultsWriter",
    "case",
    "ensure_cache",
    "execute_spec",
    "meta_line",
    "row_line",
    "run_campaign",
    "scan_partial_results",
    "shard_cells",
    "shard_of",
    "summary_line",
    "write_manifest",
]
