"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py [--seed N] [--workload W] [--out FILE]

generates the workloads from the seed, runs them, verifies every cell and
prints every metric by name with its unit.  The driver's form

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload and ends with one JSON line: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Work per pass is fixed by count (see workloads.py); ``--seconds`` or
``--passes`` only decide how many passes are taken.  Every pass runs in a
fresh child interpreter (passes.py); timed passes of different workloads
are interleaved round-robin.  README.md describes the protocol and every
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(HERE, ".tmp")
sys.path.insert(0, HERE)

import shim  # noqa: E402 — sibling modules, need HERE on the path
import stats  # noqa: E402

#: Timed passes per workload when neither --passes nor --seconds is given.
DEFAULT_PASSES = 7
#: A --seconds budget never yields fewer timed passes.
MIN_TIMED = 3
#: Timed passes a --trace 1 run takes first, for trace.overhead_ratio.
TRACE_REFERENCE_PASSES = 2
#: Traced passes of a --passes run (fewer if --passes is smaller): one pass's
#: layer shares move by ten points when a slow phase of the host crosses it.
TRACED_PASSES = 3
#: One child must end well inside the driver's 180 s limit per run.
CHILD_TIMEOUT_S = 150

#: What passes.calibration_burst takes on the growth container when nothing
#: competes for the core.  Wall times are divided by (burst / this), which
#: turns them into seconds of a host running at that reference speed.
REFERENCE_BURST_S = 0.2

#: Exact by construction under PYTHONHASHSEED=0: equal in every child.
INVARIANTS = ("cells_digest", "cells", "failed", "deliveries_ok")


class BenchmarkError(RuntimeError):
    """The harness could not produce a result (not a metric regression)."""


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn_pass(
    workload: str, seed: int, scale: Optional[float], mode: str, spans: Optional[str] = None
) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its JSON report."""
    os.makedirs(TMP, exist_ok=True)
    tmp = os.path.join(TMP, f"{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(tmp)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    command = [
        sys.executable, os.path.join(HERE, "passes.py"),
        "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--tmp", tmp, "--spawned", repr(time.time()),
    ]
    if scale is not None:
        command += ["--scale", repr(scale)]
    if spans is not None:
        command += ["--spans", spans]
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}/{mode} pass exceeded {CHILD_TIMEOUT_S}s") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}/{mode} pass exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["child_s"] = time.perf_counter() - started
    return report


class WorkloadRun:
    """The passes taken for one workload in this invocation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.timed: List[Dict[str, Any]] = []
        self.sim: Optional[Dict[str, Any]] = None
        self.traced: List[Dict[str, Any]] = []
        self.spent_s = 0.0

    def children(self) -> List[Dict[str, Any]]:
        return self.timed + ([self.sim] if self.sim else []) + self.traced

    def take(
        self, seed: int, scale: Optional[float], mode: str, spans: Optional[str] = None
    ) -> None:
        report = spawn_pass(self.name, seed, scale, mode, spans)
        self.spent_s += report["child_s"]
        if "calibration_s" in report:
            slowdown = statistics.mean(report["calibration_s"]) / REFERENCE_BURST_S
            report["slowdown"] = slowdown
            report["ref_wall_s"] = report["wall_s"] / slowdown
        if mode == "sim":
            self.sim = report
        else:
            getattr(self, mode).append(report)


def measure(
    names: Sequence[str],
    seed: int,
    scale: Optional[float],
    passes: int,
    seconds: Optional[float],
    want_sim: bool,
    want_traced: bool,
    spans_dir: Optional[str],
) -> Dict[str, WorkloadRun]:
    """Take the passes: timed round-robin, then sim, then traced."""
    runs = {name: WorkloadRun(name) for name in names}
    # A --trace 1 run needs timed passes only as trace.overhead_ratio's base.
    reference_only = want_traced and not want_sim

    def timed_done(run: WorkloadRun) -> bool:
        if reference_only:
            return len(run.timed) >= TRACE_REFERENCE_PASSES
        if seconds is None:
            return len(run.timed) >= passes
        return len(run.timed) >= MIN_TIMED and run.spent_s >= seconds

    def traced_done(run: WorkloadRun) -> bool:
        if seconds is None:
            return len(run.traced) >= min(passes, TRACED_PASSES)
        # Only a --trace 1 run spends the rest of its budget on traced passes.
        return bool(run.traced) and not (reference_only and run.spent_s < seconds)

    while pending := [run for run in runs.values() if not timed_done(run)]:
        for run in pending:
            run.take(seed, scale, "timed")
    for run in runs.values():
        if want_sim:
            run.take(seed, scale, "sim")
        if not want_traced:
            continue
        spans = None
        if spans_dir is not None:
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(os.path.abspath(spans_dir), f"{run.name}.spans.jsonl")
        while not traced_done(run):
            run.take(seed, scale, "traced", spans)
    return runs


# -- Aggregation ----------------------------------------------------------------


def end_to_end(run: WorkloadRun) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics this invocation measured, with their spread."""
    out: Dict[str, Dict[str, float]] = {}

    def put(name: str, values: Sequence[float], value: Optional[float] = None) -> None:
        entry = stats.quartiles(values)
        entry["value"] = entry["median"] if value is None else value
        out[name] = entry

    if run.timed:
        put("deliveries_per_s", [p["deliveries_ok"] / p["ref_wall_s"] for p in run.timed])
        put(
            "cell_wall_ms_p50",
            [statistics.median(p["cell_walls_ms"]) / p["slowdown"] for p in run.timed],
            statistics.median(pooled_cell_walls(run)),
        )
        put("verified_share", [1.0 - p["failed"] / p["cells"] for p in run.timed])
        put("peak_rss_mb", [p["peak_rss_mb"] for p in run.timed])
    put("setup_s", [p["setup_s"] / p["slowdown"] for p in run.timed + run.traced])
    sim = run.sim
    if sim is not None and sim["deliveries"]:
        put("host_calls_per_delivery", [sim["host_calls"] / sim["deliveries"]])
        put("steps_per_delivery", [sim["steps"] / sim["deliveries"]])
        put("delivery_latency_rounds_p50", [stats.grouped_percentile(sim["latencies"], 50)])
        put("delivery_latency_rounds_p99", [stats.grouped_percentile(sim["latencies"], 99)])
    return out


def pooled_cell_walls(run: WorkloadRun) -> List[float]:
    """Cell walls of all timed passes, in reference milliseconds."""
    return [w / p["slowdown"] for p in run.timed for w in p["cell_walls_ms"]]


def uncalibrated(run: WorkloadRun) -> Dict[str, float]:
    """The wall metrics as the clock read them, and the host's slowdown."""
    return {
        "deliveries_per_s": statistics.median(
            p["deliveries_ok"] / p["wall_s"] for p in run.timed
        ),
        "cell_wall_ms_p50": statistics.median(
            w for p in run.timed for w in p["cell_walls_ms"]
        ),
        "setup_s": statistics.median(p["setup_s"] for p in run.timed + run.traced),
        "slowdown": statistics.median(p["slowdown"] for p in run.timed),
    }


def cell_wall_tail(run: WorkloadRun) -> Optional[Dict[str, float]]:
    """The highest percentile of cell wall the pooled sample supports."""
    pooled = pooled_cell_walls(run)
    p = stats.tail_percentile(len(pooled))
    if p is None:
        return None
    return {"p": p, "value": stats.percentile(pooled, p), "n": len(pooled)}


def per_layer(run: WorkloadRun) -> Dict[str, float]:
    """Per-layer metrics: the median over this invocation's traced passes."""
    layers = [p["layers"] for p in run.traced]
    out = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
    traced_wall = statistics.median(p["ref_wall_s"] for p in run.traced)
    timed_wall = statistics.median(p["ref_wall_s"] for p in run.timed)
    out["trace.overhead_ratio"] = traced_wall / timed_wall
    return out


def top_layer(layers: Dict[str, float]) -> Dict[str, Any]:
    """The layer with the most self time, and its share of all self time."""
    seconds: Dict[str, float] = {}
    for key, value in layers.items():
        if key.endswith("_s") and not key.endswith("_per_s"):
            layer = shim.layer_of(key)
            seconds[layer] = seconds.get(layer, 0.0) + value
    total = sum(seconds.values())
    layer = max(seconds, key=seconds.get)
    return {"layer": layer, "share": seconds[layer] / total if total else 0.0}


def check(run: WorkloadRun) -> List[str]:
    """Reasons this workload's result must not be trusted (exit non-zero)."""
    problems = []
    children = run.children()
    for key in INVARIANTS:
        seen = {json.dumps(child[key]) for child in children}
        if len(seen) > 1:
            problems.append(f"{run.name}: {key} differs between passes: {sorted(seen)}")
    failed = max(child["failed"] for child in children)
    if failed and not children[0]["faulted"]:
        problems.append(f"{run.name}: {failed} cell(s) failed on a fault-free workload")
    return problems


def summarize(run: WorkloadRun, why: str) -> Dict[str, Any]:
    """Everything this invocation learned about one workload (the report)."""
    children = run.children()
    layers = per_layer(run) if run.traced else None
    return {
        "why": why,
        "cells": children[0]["cells"],
        "cells_digest": children[0]["cells_digest"],
        "sim_digest": run.sim["sim_digest"] if run.sim else None,
        "timed_passes": [
            {key: child[key] for key in ("wall_s", "slowdown", "deliveries_ok", "setup_s")}
            for child in run.timed
        ],
        "sim_passes": int(run.sim is not None),
        "traced_passes": len(run.traced),
        "end_to_end": end_to_end(run),
        "uncalibrated": uncalibrated(run),
        "cell_wall_ms_tail": cell_wall_tail(run),
        "failed_share": max(child["failed"] for child in children) / children[0]["cells"],
        "failures": sorted({line for child in children for line in child["failures"]}),
        "per_layer": layers,
        "top_layer": top_layer(layers) if layers else None,
    }


# -- Reporting --------------------------------------------------------------------


def _format(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, entry: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"\n== {name}: {entry['cells']} cells/pass, "
          f"{len(entry['timed_passes'])} timed + {entry['sim_passes']} sim + "
          f"{entry['traced_passes']} traced passes")
    print(f"   why: {entry['why']}")
    print(f"   cells_digest {entry['cells_digest']}")
    if entry["sim_digest"] is not None:
        print(f"   sim_digest   {entry['sim_digest']}")
    for metric, e in entry["end_to_end"].items():
        spread = (
            f"  [q1 {_format(e['q1'])}, q3 {_format(e['q3'])}, n={e['n']}]"
            if e["n"] > 1 else ""
        )
        print(f"   {metric:<30} {_format(e['value']):>12} {units.get(metric, ''):<6}{spread}")
    tail = entry["cell_wall_ms_tail"]
    if tail is not None:
        print(f"   {'cell_wall_ms_p%g' % tail['p']:<30} {_format(tail['value']):>12} ms"
              f"      [pooled n={tail['n']}, not gated]")
    raw = entry["uncalibrated"]
    print(f"   uncalibrated: {_format(raw['deliveries_per_s'])} deliveries/s, cell p50 "
          f"{_format(raw['cell_wall_ms_p50'])} ms, host slowdown x{raw['slowdown']:.3f}")
    print(f"   {'failed_share':<30} {_format(entry['failed_share']):>12}")
    for line in entry["failures"]:
        print(f"   FAILED {line}")
    layers = entry["per_layer"]
    if layers is not None:
        top = entry["top_layer"]
        print(f"   top self-time layer: {top['layer']} ({top['share']:.1%} of traced self time)")
        for metric in sorted(layers):
            print(f"   {metric:<42} {_format(layers[metric]):>12} {units.get(metric, '')}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--passes", type=int, default=DEFAULT_PASSES,
                        help="timed passes per workload (default %(default)s)")
    budget.add_argument("--seconds", type=float, default=None,
                        help="take passes of each workload for this long instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only; default both")
    parser.add_argument("--scale", type=float, default=None,
                        help="cell-count factor (default workloads.DEFAULT_SCALE)")
    parser.add_argument("--out", default=None, help="write the full JSON report here")
    parser.add_argument("--spans", default=None, metavar="DIR",
                        help="keep each traced pass's spans as DIR/<workload>.spans.jsonl")
    args = parser.parse_args(argv)

    # The program runs only in the children; say so plainly if it is absent.
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    whys = {w["name"]: w["why"] for w in contract["workloads"]}
    if args.workload is not None and args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(whys)}")
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    names = [args.workload] if args.workload else list(whys)

    try:
        runs = measure(
            names, args.seed, args.scale, args.passes, args.seconds,
            want_sim=args.trace != 1, want_traced=args.trace != 0,
            spans_dir=args.spans,
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    report: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "python": sys.version.split()[0], "workloads": {},
    }
    problems: List[str] = []
    attempted = failed = 0
    final: Dict[str, Dict[str, Any]] = {}
    for name, run in runs.items():
        entry = report["workloads"][name] = summarize(run, whys[name])
        report["scale"] = run.children()[0]["scale"]
        print_workload(name, entry, units)
        problems += check(run)
        counted = run.timed + run.traced
        attempted += sum(child["cells"] for child in counted)
        failed += sum(child["failed"] for child in counted)
        if args.trace is not None:
            declared = contract["per_layer" if args.trace else "end_to_end"]
            values = (
                entry["per_layer"] if args.trace
                else {k: v["value"] for k, v in entry["end_to_end"].items()}
            )
            missing = [m["name"] for m in declared if m["name"] not in values]
            if missing:
                problems.append(f"{name}: metrics not measured: {missing}")
            final[name] = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in declared if m["name"] in values
            }

    for problem in problems:
        print(f"PROBLEM {problem}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.trace is not None:
        print(json.dumps({
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": final[names[0]] if args.workload else final,
        }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
