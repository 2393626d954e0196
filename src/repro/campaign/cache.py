"""The campaign result cache and the hash-prefix grid shards.

A sweep row is a pure function of its grid cell — the scenario's content
hash, the schedule seed, the backend and the fault plan hash (see
:func:`repro.workloads.runner.scenario_cache_key`).  The
:class:`CampaignCache` stores one JSON file per cell under that key, so
a rerun of a campaign executes only the cells it has never seen: a cache
hit replays the stored row byte-identically into ``results.jsonl``
instead of re-running the scenario.

Three policies keep cached sweeps honest:

* **Only ``ok`` rows are stored.**  A ``failed`` row describes a crash
  of the *harness* (an exception, a broken checker) rather than a fact
  about the scenario; caching it would freeze a transient failure into
  every future sweep, so failed cells are always re-executed.
* **Label-independent identity.**  The key excludes the spec's
  free-form label, and a hit is re-labelled from the live spec
  (``name`` + ``spec`` fields), so two campaigns sweeping the same cell
  under different names share one entry yet each serializes its own
  labels byte-identically.
* **Corruption is a miss.**  A torn or unparsable cache file (a killed
  writer, a disk hiccup) silently degrades to re-execution; writes are
  atomic (`os.replace`) so a reader never observes a half-written row.

:func:`shard_of` / :func:`shard_cells` split a grid by cache-key prefix
— the first step toward multi-host sweeps: every host runs
``run_campaign(campaign, shard=(k, n))``, the shards partition the grid
deterministically (the key is content-addressed, so the split is stable
across hosts and reruns), and the per-shard artifacts keep the global
grid indices so they can be merged by concatenation.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro._content import entry_path, read_entry, write_entry
from repro.workloads.runner import scenario_cache_key
from repro.workloads.spec import ScenarioSpec

#: Bumped on breaking changes to the cached-row layout.  Version 2 grew
#: the row's ``trace`` section with the coverage signals the explorer
#: fingerprints runs by (wait reasons, oracle query totals, the
#: interleaving transition stream); version-1 entries miss and re-run.
CACHE_SCHEMA_VERSION = 2


class CampaignCache:
    """A content-addressed store of finished sweep rows.

    One file per cell (layout: :mod:`repro._content`), holding the row
    minus its grid ``index`` (the index describes the row's position in
    one particular campaign, not the cell's identity).

    Attributes:
        root: the cache directory (created lazily on first store).
        hits / misses / stored: what this instance actually did —
            surfaced in campaign reports and the CLI summary.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.stored = 0

    # -- Addressing --------------------------------------------------------

    def key_for(self, spec: ScenarioSpec) -> str:
        """The cell's cache key (see :func:`scenario_cache_key`)."""
        return scenario_cache_key(spec)

    def path_for(self, spec: ScenarioSpec) -> str:
        """Where the cell's row lives (whether or not it exists yet)."""
        return entry_path(self.root, self.key_for(spec))

    # -- Lookup ------------------------------------------------------------

    def get(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        """The stored row for ``spec``'s cell, or ``None`` to execute.

        Misses on absent files, unparsable files, schema mismatches and
        non-``ok`` rows (a failed row is never cache-hit).  A hit is
        re-labelled from the live spec so the replayed row is
        byte-identical to what executing this spec would have produced.
        """
        entry = read_entry(self.path_for(spec))
        row = entry.get("row") if isinstance(entry, dict) else None
        if (
            not isinstance(row, dict)
            or entry.get("schema") != CACHE_SCHEMA_VERSION
            or row.get("status") != "ok"
        ):
            self.misses += 1
            return None
        self.hits += 1
        row["name"] = spec.name
        row["spec"] = spec.to_json()
        return row

    # -- Store -------------------------------------------------------------

    def put(self, spec: ScenarioSpec, row: Dict[str, Any]) -> bool:
        """Store an executed row; returns whether it was cached.

        ``failed`` rows are refused (always re-execute), and the grid
        ``index`` is stripped — it belongs to the campaign, not the
        cell.  The write is atomic: a concurrent reader sees either the
        old entry or the new one, never a torn file.
        """
        if row.get("status") != "ok":
            return False
        key = self.key_for(spec)
        write_entry(
            entry_path(self.root, key),
            {
                "schema": CACHE_SCHEMA_VERSION,
                "key": key,
                "row": {k: v for k, v in row.items() if k != "index"},
            },
        )
        self.stored += 1
        return True

    def stats(self) -> Dict[str, int]:
        """What this cache instance did, row-ready."""
        return {"hits": self.hits, "misses": self.misses, "stored": self.stored}


def ensure_cache(
    cache: Optional[object],
) -> Optional[CampaignCache]:
    """Coerce a cache argument (directory path or instance) to a cache."""
    if cache is None or isinstance(cache, CampaignCache):
        return cache
    if isinstance(cache, str):
        return CampaignCache(cache)
    raise TypeError(
        f"cache must be a CampaignCache or a directory path, got {cache!r}"
    )


# -- Grid sharding ----------------------------------------------------------


def shard_of(spec: ScenarioSpec, shards: int) -> int:
    """Which of ``shards`` hash-prefix shards this cell belongs to.

    Derived from the leading 64 bits of the cell's cache key, so the
    assignment is a pure function of content — stable across hosts,
    reruns and grid re-orderings — and uniform for any shard count.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    return int(scenario_cache_key(spec)[:16], 16) % shards


def shard_cells(
    cells: Iterable[Tuple[int, ScenarioSpec]], shards: int, shard: int
) -> List[Tuple[int, ScenarioSpec]]:
    """The ``(global index, spec)`` cells owned by ``shard`` of ``shards``.

    Global indices are preserved so a shard's ``results.jsonl`` rows
    carry their position in the *whole* grid — merging the per-host
    artifacts back into one sweep is a sort-by-index concatenation.
    """
    if not 0 <= shard < shards:
        raise ValueError(
            f"shard index must be in [0, {shards}), got {shard}"
        )
    return [
        (index, spec)
        for index, spec in cells
        if shard_of(spec, shards) == shard
    ]
