"""Triage of a red sweep: label, shrink and deduplicate its violations.

:func:`violated_properties` labels a row; :func:`triage` runs ddmin
(:func:`repro.faults.shrink.shrink_plan`) over each violating cell's
fault plan.  The shrinker's predicate is the sweep's own judgement:
every probe is one cell through the executor's cell path
(:func:`repro.campaign.executor._iter_cell_rows`) under the sweep's
backstops, fronted by its :class:`repro.campaign.cache.CampaignCache`
and labelled like the witness was, so a second triage of a known red
cell executes nothing.  Records are deduplicated by ``(violated
properties, shrunk plan hash)``: forty witnesses of one bug are one
record with ``count=40``.  Runs are pure functions of their specs, so the ledger is
a pure function of the rows.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

from repro.campaign.cache import CampaignCache
from repro.campaign.executor import _iter_cell_rows, _refuse_unarmable
from repro.faults.plan import FaultPlan
from repro.faults.shrink import repro_payload, shrink_plan, write_repro
from repro.workloads.runner import triage_record
from repro.workloads.spec import ScenarioSpec

#: Error types that mark an *inadmissible probe*, not a violation.
#: Drawn events are admissible one by one (the ``FaultEvent``
#: constructor guarantees it), but a plan can still fail against its
#: run: :meth:`repro.faults.injector.FaultInjector.perturb_pattern`
#: raises ``AdmissibilityError`` on a target index the topology lacks,
#: and the runner raises it when the post-run
#: :meth:`repro.faults.injector.FaultInjector.audit` finds a violation.
#: Either way the *adversary* left the model, not the system: the
#: paper's results only quantify over admissible environments, so the
#: probe is counted but never triaged.
INADMISSIBLE_ERRORS = ("AdmissibilityError",)


def error_type(row: Dict[str, Any]) -> str:
    """The exception class name of a ``failed`` row."""
    error = str(row.get("error", ""))
    return error.split("(", 1)[0].strip() or "unknown"


def violated_properties(row: Dict[str, Any]) -> List[str]:
    """The violation labels of one row (empty = clean run).

    A harness crash is labelled by its error type — except the
    :data:`INADMISSIBLE_ERRORS`, which mean the adversary left the
    admissibility envelope and the run proves nothing (empty, like
    a clean run; the sweep still counts the row as failed).  A truncated
    run carries the pseudo-property ``"truncated"`` (it never
    witnessed Termination — the stall class of bug).
    """
    if row.get("status") != "ok":
        etype = error_type(row)
        if etype in INADMISSIBLE_ERRORS:
            return []
        return [f"harness-error:{etype}"]
    violated = sorted(
        prop
        for prop, count in (row.get("verdicts") or {}).items()
        if count
    )
    if row.get("truncated"):
        violated.append("truncated")
    return violated


def triage(
    rows: Iterable[Dict[str, Any]],
    *,
    cache: Optional[CampaignCache] = None,
    stall_window: Optional[int] = None,
    cell_timeout: Optional[float] = None,
    out_dir: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Shrink and deduplicate the violating ``rows``; returns the ledger.

    ``cache``, ``stall_window`` and ``cell_timeout`` are the sweep's: a
    probe (in-process) is judged the way its cells were.  With
    ``out_dir`` each shrunk record's repro file and, when there is any
    record, ``triage.json`` are written there; without it the payload
    rides in the record.
    Records come in the order of their first witness.
    """
    _refuse_unarmable(cell_timeout, in_process=True)

    def violates(spec: ScenarioSpec) -> bool:
        [row] = _iter_cell_rows(
            [(0, spec)],
            cache=cache,
            stall_window=stall_window,
            cell_timeout=cell_timeout,
        )
        return bool(violated_properties(row))

    records: Dict[str, Dict[str, Any]] = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for row in rows:
        violated = violated_properties(row)
        if not violated:
            continue
        spec = ScenarioSpec.from_json(row["spec"])
        original = spec.faults or FaultPlan()
        minimal = shrinker = None
        if row.get("status") == "ok":
            # A harness crash is triaged unshrunk; anything else shrinks
            # under the judgement that flagged it.
            minimal, shrinker = shrink_plan(spec, violates=violates)
        plan_hash = (minimal if minimal is not None else original).plan_hash()
        key = f"{','.join(violated)}|{plan_hash}"
        existing = records.get(key)
        if existing is not None:
            existing["count"] += 1
            continue

        record: Dict[str, Any] = {
            "key": key,
            "properties": violated,
            "plan_hash": plan_hash,
            "count": 1,
            "first_cell": row.get("name"),
            "witness": triage_record(spec),
            "original_events": len(original),
        }
        if minimal is not None:
            payload = repro_payload(spec, minimal, original, shrinker=shrinker)
            record["minimal_events"] = len(minimal)
            record["minimal_plan"] = minimal.to_json()
            record["shrink"] = payload["shrink"]
            if out_dir is not None:
                name = f"repro-{len(records):03d}-{plan_hash[:10]}.json"
                write_repro(os.path.join(out_dir, name), payload)
                record["repro"] = name
            else:
                record["payload"] = payload
        records[key] = record

    ledger = list(records.values())
    if out_dir is not None and ledger:
        with open(
            os.path.join(out_dir, "triage.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump({"records": ledger}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ledger
