"""The campaign result cache.

A sweep row is a pure function of its grid cell, and a cell's one
content address is :meth:`repro.workloads.spec.ScenarioSpec.spec_hash`.
The :class:`CampaignCache` stores one JSON file per cell under that
address, so a rerun of a campaign executes only the cells it has never
seen: a cache hit replays the stored row byte-identically into
``results.jsonl`` instead of re-running the scenario.

Three policies keep cached sweeps honest:

* **Only ``ok`` rows are stored.**  A ``failed`` row describes a crash
  of the *harness* (an exception, a broken checker) rather than a fact
  about the scenario; caching it would freeze a transient failure into
  every future sweep, so failed cells are always re-executed.
* **Label-independent identity.**  ``spec_hash`` excludes the spec's
  free-form label, and a hit is re-labelled from the live spec
  (``name`` + ``spec`` fields), so two campaigns sweeping the same cell
  under different names share one entry yet each serializes its own
  labels byte-identically.
* **Corruption is a miss.**  A torn or unparsable cache file (a killed
  writer, a disk hiccup) silently degrades to re-execution; writes are
  atomic (`os.replace`) so a reader never observes a half-written row.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro._content import entry_path, read_entry, write_entry
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

    def path_for(self, spec: ScenarioSpec) -> str:
        """Where the cell's row lives (whether or not it exists yet)."""
        return entry_path(self.root, spec.spec_hash())

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
        key = spec.spec_hash()
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
