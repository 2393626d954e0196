"""Campaign reports: manifest + byte-stable results JSONL.

A finished sweep is two artifacts:

* ``manifest.json`` — the sweep's identity: name, sweep hash, and the
  ordered scenario list with per-spec content hashes (the *inventory*
  the sweep hash is taken over).  Enough to replay any row (or the whole
  sweep) without the code that built the grid.
* ``results.jsonl`` — one meta line, one line per scenario row (in spec
  order), one summary line; the same ``meta / body / summary`` layout as
  the engine traces, readable with :func:`repro.metrics.read_jsonl`.

Neither artifact records wall-clock times, worker counts or execution
mode: those describe the machine, not the campaign, and keeping them
out is what makes the files byte-identical across executors.  Timing
lives on the in-memory :class:`CampaignReport` only.

Both artifacts have one writer, ``run_campaign(out_dir=...)``:
:func:`write_manifest` up front, then :class:`ResultsWriter` appending
each row as it arrives, so the sweep never holds its rows.  The results
file is also the resume medium: :func:`scan_partial_results` walks a
partial file after an interrupt, recovers the valid row prefix, and
tells the executor where to truncate and continue.  A sweep is named
by what it runs — :func:`sweep_hash` over its inventory, the same for a
:class:`repro.campaign.grid.Campaign` and a bare spec list — and a
partial file resumes only under the byte-identical meta line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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


def meta_line(
    name: str,
    campaign_hash: str,
    scenarios: int,
    shard: Optional[Tuple[int, int]] = None,
) -> str:
    """The results file's first line.

    ``scenarios`` is the number of row lines this file will carry — the
    whole grid normally, the shard's cell count for a sharded sweep
    (which also records its ``shard`` so merged artifacts self-describe;
    unsharded sweeps keep the historical layout byte-for-byte).
    """
    body: Dict[str, Any] = {
        "type": "meta",
        "schema": CAMPAIGN_SCHEMA_VERSION,
        "name": name,
        "campaign_hash": campaign_hash,
        "scenarios": scenarios,
    }
    if shard is not None:
        body["shard"] = list(shard)
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
            hits, resumed rows and already-complete files excluded).
        cached: rows replayed from the result cache.
        resumed: rows recovered from a partial results file.
        shard: ``(shard index, shard count)`` for a sharded sweep, else
            ``None``.
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
    resumed: int = 0
    shard: Optional[Tuple[int, int]] = None

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
    by the caller that also hashed it.  Idempotent, so a resumed sweep
    simply rewrites it.
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


# -- Streaming results ------------------------------------------------------


class ResultsWriter:
    """Appends results.jsonl lines as rows arrive (O(1) memory).

    One meta line, one line per row in spec order, one summary line —
    keys sorted, nothing machine-specific — so serial and parallel
    sweeps of the same campaign write identical files.  Every line is
    flushed as written: an interrupted sweep leaves at worst one torn
    trailing line, which :func:`scan_partial_results` discards on resume.
    ``meta`` is the sweep's :func:`meta_line`.
    """

    def __init__(self, path: str, meta: str) -> None:
        self.path = path
        self._meta = meta
        self._fh: Optional[Any] = None

    def start(self) -> None:
        """Open a fresh file and write the meta line."""
        self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.write(self._meta + "\n")
        self._fh.flush()

    def resume_at(self, offset: int) -> None:
        """Truncate the partial file to ``offset`` and append after it.

        ``offset`` is the byte position after the last valid line (from
        :func:`scan_partial_results`); everything past it — a torn line,
        rows beyond a corrupt gap — is discarded and re-executed.
        """
        fh = open(self.path, "r+b")
        fh.truncate(offset)
        fh.close()
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, row: Dict[str, Any]) -> None:
        assert self._fh is not None, "writer not started"
        self._fh.write(row_line(row) + "\n")
        self._fh.flush()

    def finish(self, summary: Dict[str, Any]) -> None:
        """Write the summary line and close — the sweep is complete."""
        assert self._fh is not None, "writer not started"
        self._fh.write(summary_line(summary) + "\n")
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- Resume -----------------------------------------------------------------


@dataclass(frozen=True)
class PartialScan:
    """What a partial results file still holds.

    Attributes:
        rows: valid rows recovered (a prefix of the sweep's cells).
        offset: byte position after the last valid line — the resume
            point for :meth:`ResultsWriter.resume_at`.  ``0`` means not
            even the meta line survived: start fresh.
        complete: a summary line was found — the sweep already finished
            and there is nothing to execute.
    """

    rows: int
    offset: int
    complete: bool


def scan_partial_results(
    path: str,
    *,
    meta: str,
    expected: Sequence[int],
    consume: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> PartialScan:
    """Walk a partial results file and find the resume point.

    The file must open with ``meta``, the :func:`meta_line` this sweep
    would write, byte for byte — name, sweep hash, cell count and shard
    in one comparison.  Any other complete first line raises
    :class:`ValueError` rather than silently clobbering some other
    sweep's artifact (a torn one means nothing was written: start
    fresh).  Rows are validated against ``expected`` (the
    global grid indices this sweep will emit, in order); the scan stops
    at the first torn, unparsable or out-of-sequence line, and each
    valid row is passed to ``consume`` (the executor feeds its
    aggregator and row sinks) without retaining any of them.
    """
    rows = 0
    offset = 0
    complete = False
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(iter(fh.readline, b"")):
            if not raw.endswith(b"\n"):
                break  # torn tail from the interrupt — discard
            if lineno == 0:
                found = raw[:-1].decode("utf-8", "replace")
                if found != meta:
                    raise ValueError(
                        f"results file {path!r} belongs to a different "
                        f"campaign: expected meta line {meta}, found "
                        f"{found}; refusing to resume over it"
                    )
                offset += len(raw)
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                break
            if not isinstance(record, dict):
                break
            kind = record.get("type")
            if kind == "summary":
                if rows != len(expected):
                    raise ValueError(
                        f"results file {path!r} carries a summary line "
                        f"after only {rows} of {len(expected)} rows; the "
                        f"artifact is corrupt — delete it to re-run"
                    )
                offset += len(raw)
                complete = True
                break
            if kind != "row":
                break
            if rows >= len(expected) or record.get("index") != expected[rows]:
                break
            if consume is not None:
                consume(record)
            rows += 1
            offset += len(raw)
    return PartialScan(rows=rows, offset=offset, complete=complete)
