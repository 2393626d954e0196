"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this file as a child process (``PYTHONHASHSEED=0``, one
process, no threads) once per pass, so no pass inherits another's caches.
Set-up — imports, workload generation, one untimed warm-up cell — ends
before the timed region starts and is reported as ``setup_s``, measured
from the moment the parent spawned the child.

Three kinds of pass:

* ``timed`` — every cell through ``execute_spec`` (``run_campaign`` for the
  campaign workload), tracing off: pass wall, per-cell walls, deliveries.
* ``sim`` — every cell through ``run_scenario`` + ``to_row`` under a
  C-level profiler counting ``call``/``c_call`` events: the exact metrics.
* ``traced`` — the timed pass again with the shim installed: per-layer
  self seconds and counts.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import shim
import workloads
from repro.campaign import executor
from repro.metrics.summary import latency_of
from repro.workloads import runner
from repro.workloads.spec import ScenarioSpec

MODES = ("timed", "sim", "traced")

#: One calibration burst: a fixed interpreter-bound loop, about 0.2 s on the
#: growth container while nothing else competes for the core.
CALIBRATION_LOOPS = 2_300_000


def calibration_burst() -> float:
    """Seconds the fixed loop takes right now — the host's current speed.

    The sandbox shares its cores: the same code runs up to 1.7x slower for
    seconds or minutes at a time.  Each timed or traced pass is bracketed by
    two bursts, and run.py divides the pass's wall times by their mean over
    the reference duration, so a pass taken in a slow phase does not read
    as a slow program.  The loop lives here, outside ``src/``: a change to
    the program cannot speed it up.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(CALIBRATION_LOOPS):
        table[i & 1023] = total
        total += i * 3 % 7
    return time.perf_counter() - start


def verify_row(row: Dict[str, Any]) -> Optional[str]:
    """Why a result row does not count as verified, or ``None``."""
    if row.get("status") != "ok":
        return f"status={row.get('status')} error={row.get('error')}"
    if row["truncated"]:
        return "truncated"
    if not row["delivered_everywhere"]:
        return "not delivered everywhere"
    bad = {name: n for name, n in row["verdicts"].items() if n}
    if bad:
        return f"verdicts {bad}"
    return None


class Tally:
    """Verified deliveries and failures over the rows of one pass."""

    def __init__(self, specs: Sequence[ScenarioSpec]) -> None:
        self.specs = specs
        self.rows: List[Dict[str, Any]] = []
        self.deliveries_ok = 0
        self.failures: List[str] = []

    def add(self, index: int, row: Dict[str, Any]) -> bool:
        self.rows.append(row)
        reason = verify_row(row)
        if reason is None:
            self.deliveries_ok += row["deliveries"]
            return True
        spec = self.specs[index]
        self.failures.append(f"{spec.name}: {reason} {runner.triage_line(spec)}")
        return False

    def report(self) -> Dict[str, Any]:
        return {
            "cells": len(self.specs),
            "failed": len(self.failures),
            "failures": self.failures,
            "deliveries_ok": self.deliveries_ok,
        }


def run_cells(
    workload: workloads.Workload,
    specs: Sequence[ScenarioSpec],
    tmp: str,
    tally: Tally,
) -> Tuple[float, List[float]]:
    """Execute the pass as a campaign user would; wall and cell walls (s).

    ``executor.execute_spec`` / ``executor.run_campaign`` are looked up at
    call time so that an installed shim is seen.
    """
    walls: List[float] = []
    start = time.perf_counter()
    if workload.campaign:
        marks = [start]

        def on_row(row: Dict[str, Any]) -> None:
            marks.append(time.perf_counter())
            tally.add(row["index"], row)

        executor.run_campaign(
            specs,
            mode="serial",
            cache=os.path.join(tmp, "cache"),
            out_dir=os.path.join(tmp, "out"),
            stall_window=workloads.STALL_WINDOW,
            on_row=on_row,
        )
        wall = time.perf_counter() - start
        walls = [b - a for a, b in zip(marks, marks[1:])]
    else:
        for index, spec in enumerate(specs):
            cell_start = time.perf_counter()
            row = executor.execute_spec((index, spec))
            walls.append(time.perf_counter() - cell_start)
            tally.add(index, row)
        wall = time.perf_counter() - start
    return wall, walls


def timed_pass(workload, specs, tmp) -> Dict[str, Any]:
    tally = Tally(specs)
    wall, walls = run_cells(workload, specs, tmp, tally)
    return {
        "wall_s": wall,
        "cell_walls_ms": [w * 1000.0 for w in walls],
        **tally.report(),
    }


def sim_pass(workload, specs) -> Dict[str, Any]:
    """Exact metrics: host call events, logical latencies, steps, digest."""
    tally = Tally(specs)
    stall_window = workloads.STALL_WINDOW if workload.campaign else None
    calls = deliveries = steps = 0
    latencies: List[float] = []
    digest = hashlib.sha256()
    for index, spec in enumerate(specs):
        # subcalls=False: only the per-function call counts are read.
        profile = cProfile.Profile(subcalls=False, builtins=True)
        result = None
        profile.enable()
        try:
            result = runner.run_scenario(spec, stall_window=stall_window)
            row = result.to_row()
        except Exception as exc:  # noqa: BLE001 — same isolation as execute_spec
            row = {"status": "failed", "error": repr(exc)}
        finally:
            profile.disable()
        if not tally.add(index, row):
            continue
        record = result.record
        cell_latencies = [latency_of(record, m) for m in result.messages]
        cell_steps = (
            sum(result.kernel.steps_taken.values())
            if result.kernel is not None
            else sum(record.step_counts().values())
        )
        calls += sum(entry.callcount for entry in profile.getstats())
        deliveries += row["deliveries"]
        steps += cell_steps
        latencies.extend(x for x in cell_latencies if x is not None)
        digest.update(
            json.dumps(
                [row["deliveries"], row["rounds"], cell_steps, cell_latencies]
            ).encode("utf-8")
        )
    return {
        "host_calls": calls,
        "deliveries": deliveries,
        "steps": steps,
        "latencies": latencies,
        "sim_digest": digest.hexdigest(),
        **tally.report(),
    }


def traced_pass(workload, specs, tmp, spans_path: Optional[str]) -> Dict[str, Any]:
    tally = Tally(specs)
    tracer = shim.Tracer()
    tracer.install()
    try:
        wall, _ = run_cells(workload, specs, tmp, tally)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    if spans_path is not None:
        origin = spans[0][1] if spans else 0.0
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cell in spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - origin,
                         "end": end - origin, "parent": parent, "cell": cell}
                    )
                    + "\n"
                )
    return {
        "wall_s": wall,
        "layers": layer_metrics(tracer, tally.rows, wall),
        **tally.report(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: shim.Tracer, rows: Sequence[Dict[str, Any]], wall: float
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    spans = tracer.spans
    m: Dict[str, float] = dict(shim.seam_totals(spans))
    for seam in shim.SEAMS:
        if seam.time is None:
            m[seam.calls] = tracer.counts.get(seam.calls, 0)
    ok_rows = [row for row in rows if row.get("status") == "ok"]
    kernel_rows = [row for row in ok_rows if row["backend"] == "kernel"]
    traces = [row["trace"] for row in ok_rows]
    transports = [row["transport"] for row in ok_rows if "transport" in row]
    round_seconds = sum(s[2] - s[1] for s in spans if s[0] == "Scheduler.round")

    m["runtime.scheduler.rounds_per_s"] = _ratio(
        m["runtime.scheduler.rounds"], round_seconds
    )
    m["runtime.scheduler.skipped"] = sum(t["skipped"] for t in traces)
    m["runtime.scheduler.actions_per_scan"] = _ratio(
        sum(t["actions"] for t in traces), sum(t["scanned"] for t in traces)
    )
    m["core.algorithm1.actions_per_try"] = _ratio(
        tracer.observed.get("core.algorithm1.actions", 0),
        m["core.algorithm1.try_calls"],
    )
    m["objects.space.max_log_len"] = tracer.observed.get(
        "objects.space.max_log_len", 0
    )
    m["sim.kernel.steps_per_round"] = _ratio(
        m["sim.kernel.steps"], sum(row["trace"]["rounds"] for row in kernel_rows)
    )
    m["substrates.consensus.msgs_per_delivery"] = _ratio(
        tracer.observed.get("sim.kernel.messages", 0),
        sum(row["deliveries"] for row in kernel_rows),
    )
    m["runtime.async_driver.retries_scheduled"] = sum(
        t["retries_scheduled"] for t in transports
    )
    m["runtime.async_driver.acked"] = sum(t["acked"] for t in transports)
    m["trace.spans"] = len(spans)
    m["trace.unattributed_share"] = _ratio(wall - shim.root_seconds(spans), wall)
    return m


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=workloads.DEFAULT_SCALE)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() at which the parent started this child")
    parser.add_argument("--tmp", required=True, help="scratch directory of this pass")
    parser.add_argument("--spans", default=None, help="write the spans here (traced)")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    specs = workload.generate(args.seed, args.scale)
    warm = executor.execute_spec((0, workloads.warmup_spec(specs)))
    if warm.get("status") != "ok":
        raise SystemExit(f"warm-up cell failed: {warm.get('error')}")
    gc.collect()
    setup_s = time.time() - args.spawned

    if args.mode == "sim":
        out = sim_pass(workload, specs)
    else:
        before = calibration_burst()
        if args.mode == "timed":
            out = timed_pass(workload, specs, args.tmp)
        else:
            out = traced_pass(workload, specs, args.tmp, args.spans)
        out["calibration_s"] = [before, calibration_burst()]
    out["setup_s"] = setup_s
    # Linux reports ru_maxrss in KiB.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["cells_digest"] = workloads.cells_digest(specs)
    out["scale"] = args.scale
    # Faults are injected, so a failing cell is data, not a broken benchmark.
    out["faulted"] = any(spec.faults is not None for spec in specs)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
