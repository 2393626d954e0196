"""Campaign reports: manifest + byte-stable results JSONL.

A finished sweep is two artifacts:

* ``manifest.json`` — the sweep's identity: name, sweep hash, and the
  ordered scenario list with per-spec content hashes (the *inventory*
  the sweep hash is taken over).  Enough to replay any row (or the whole
  sweep) without the code that built the grid.
* ``results.jsonl`` — one meta line, one line per scenario row (in spec
  order), one summary line; the same ``meta / body / summary`` layout as
  the engine traces, readable with :func:`repro.metrics.trace.read_jsonl`.

Neither artifact records wall-clock times, worker counts or execution
mode: those describe the machine, not the campaign, and keeping them
out is what makes the files byte-identical across executors.  Timing
lives on the in-memory :class:`CampaignReport` only.

Both artifacts have one writer, ``run_campaign(out_dir=...)``:
:func:`write_manifest` up front, then the :func:`meta_line`, one
flushed :func:`row_line` per row as it arrives and the
:func:`summary_line`, so the sweep never holds its rows.  A sweep is
named by what it runs — :func:`sweep_hash` over its inventory, the same
for a :class:`repro.campaign.grid.Campaign` and a bare spec list.  An
interrupted sweep is not continued from its partial file: rerun over
the same result cache, it replays the cells it finished and rewrites
both artifacts whole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro._content import content_hash
from repro.workloads.spec import ScenarioSpec

#: Bumped on breaking changes to the results/manifest layout.
CAMPAIGN_SCHEMA_VERSION = 1


# -- Sweep identity ---------------------------------------------------------


def sweep_inventory(specs: Sequence[ScenarioSpec]) -> List[Tuple[str, str]]:
    """What a sweep runs, as its manifest lists it: ``(name, spec_hash)``
    per cell, in grid order."""
    return [(spec.name, spec.spec_hash()) for spec in specs]


def inventory_hash(name: str, inventory: Sequence[Tuple[str, str]]) -> str:
    """Content address of a sweep named ``name`` running ``inventory``."""
    return content_hash({"name": name, "inventory": list(inventory)})


def sweep_hash(name: str, specs: Sequence[ScenarioSpec]) -> str:
    """The sweep's identity (sha256 hex): its name plus its inventory.

    Two sweeps share it exactly when they run the same labelled cells in
    the same order, however the cell list was built.
    """
    return inventory_hash(name, sweep_inventory(specs))


# -- Line formats (the single source of results.jsonl bytes) ----------------


def meta_line(name: str, campaign_hash: str, scenarios: int) -> str:
    """The results file's first line; ``scenarios`` row lines follow."""
    body = {
        "type": "meta",
        "schema": CAMPAIGN_SCHEMA_VERSION,
        "name": name,
        "campaign_hash": campaign_hash,
        "scenarios": scenarios,
    }
    return json.dumps(body, sort_keys=True)


def row_line(row: Dict[str, Any]) -> str:
    """One scenario row as its results.jsonl line."""
    body = dict(row)
    body["type"] = "row"
    return json.dumps(body, sort_keys=True, default=str)


def summary_line(summary: Dict[str, Any]) -> str:
    """The aggregate as the results file's final line."""
    body = dict(summary)
    body["type"] = "summary"
    return json.dumps(body, sort_keys=True)


@dataclass(frozen=True)
class CampaignReport:
    """Everything a finished sweep produced.

    Attributes:
        name: campaign name.
        campaign_hash: the :func:`sweep_hash` of ``name`` and ``specs``.
        specs: the expanded scenario specs, in execution order.
        rows: one result row per spec, in the same order.  Empty when
            the sweep wrote to an ``out_dir`` — the artifact, not this
            object, holds them.
        summary: the worker-count-independent aggregate
            (:meth:`repro.metrics.sweep.SweepAggregator.summary`).
        mode: ``"serial"`` or ``"process"`` — how this report was made.
        workers: worker processes used (1 for serial).
        elapsed: wall-clock seconds of the sweep.  Not serialized.
        executed: scenarios actually run by this invocation (cache
            hits excluded).
        cached: rows replayed from the result cache.
    """

    name: str
    campaign_hash: str
    specs: Tuple[ScenarioSpec, ...]
    rows: Tuple[Dict[str, Any], ...]
    summary: Dict[str, Any]
    mode: str
    workers: int
    elapsed: float
    executed: int = 0
    cached: int = 0

    # -- Row access -------------------------------------------------------

    def ok_rows(self) -> Tuple[Dict[str, Any], ...]:
        return tuple(r for r in self.rows if r.get("status") == "ok")


# -- Manifest ---------------------------------------------------------------


def write_manifest(
    path: str,
    *,
    name: str,
    campaign_hash: str,
    specs: Sequence[ScenarioSpec],
    inventory: Sequence[Tuple[str, str]],
) -> str:
    """Write ``manifest.json``: the sweep's identity and inventory.

    ``inventory`` is :func:`sweep_inventory` of ``specs``, computed once
    by the caller that also hashed it.
    """
    manifest = {
        "schema": CAMPAIGN_SCHEMA_VERSION,
        "name": name,
        "campaign_hash": campaign_hash,
        "scenarios": [
            {
                "index": index,
                "name": label,
                "spec_hash": spec_hash,
                "spec": spec.to_json(),
            }
            for index, (spec, (label, spec_hash)) in enumerate(
                zip(specs, inventory)
            )
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
    return path
