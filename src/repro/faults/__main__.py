"""``python -m repro.faults`` — the nemesis smoke matrix.

Runs Algorithm 1 under random admissible fault plans across both
execution backends and every injector mix, and exits non-zero when any
run fails a §2.2 checker, trips the admissibility auditor, or times out.
CI uses this as the ``fault-matrix`` job.

The engine backend runs the paper's Figure 1 topology (the overlapping
four-group example); the kernel backend requires pairwise-disjoint
groups, so it runs the same matrix over a 3-group disjoint grid.  For
every ``(backend, mix, seed)`` cell the plan is drawn by
:func:`repro.faults.nemesis.random_plan` from the cell's own seed, so a
red cell is reproducible from its row alone.

``--shrink-demo`` additionally runs the counterexample shrinker against
the non-genuine broadcast baseline (whose Minimality violation is
intrinsic) and prints the minimized repro — the worked example of
EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Tuple

from repro.campaign.executor import run_campaign
from repro.faults.nemesis import MIXES, random_plan
from repro.groups.topology import paper_figure1_topology
from repro.metrics.sweep import sweep_exit_status, sweep_table
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology


def _base_cells() -> Tuple[Tuple[str, TopologySpec, Tuple[Send, ...], Tuple[Tuple[int, int], ...]], ...]:
    """``(backend, topology, sends, crashes)`` per backend."""
    figure1 = TopologySpec.capture(paper_figure1_topology())
    disjoint = TopologySpec.capture(disjoint_topology(3, group_size=3))
    return (
        (
            "engine",
            figure1,
            (
                Send(1, "g1", 0),
                Send(3, "g2", 0),
                Send(4, "g3", 1),
                Send(5, "g4", 1),
                Send(2, "g1", 2),
            ),
            ((2, 6),),  # p2 = g1 ∩ g2 dies mid-run
        ),
        (
            "kernel",
            disjoint,
            (Send(2, "g1", 0), Send(4, "g2", 0), Send(8, "g3", 1)),
            ((5, 8),),  # one g2 member: still a live majority
        ),
    )


def matrix_specs(
    seeds: int,
    mixes: Tuple[str, ...] = MIXES,
    backends: Tuple[str, ...] = ("engine", "kernel"),
    max_rounds: int = 600,
) -> List[ScenarioSpec]:
    """The fault-matrix grid: backends x mixes x seeds, one plan per cell."""
    specs: List[ScenarioSpec] = []
    for backend, topology, sends, crashes in _base_cells():
        if backend not in backends:
            continue
        groups = tuple(name for name, _ in topology.groups)
        for mix in mixes:
            for seed in range(seeds):
                plan = random_plan(
                    seed,
                    mix,
                    process_count=topology.process_count,
                    groups=groups,
                )
                specs.append(
                    ScenarioSpec(
                        topology=topology,
                        crashes=crashes,
                        sends=sends,
                        seed=seed,
                        backend=backend,
                        max_rounds=max_rounds,
                        faults=plan,
                        name=(
                            f"{backend}:{mix}:s{seed}"
                            f":f{plan.plan_hash()[:6]}"
                        ),
                    )
                )
    return specs


def shrink_demo_spec() -> ScenarioSpec:
    """The spec ``--shrink-demo`` minimizes under the broadcast harness."""
    return ScenarioSpec(
        topology=TopologySpec.capture(disjoint_topology(2, group_size=3)),
        # One send, one destination group: every step g2 takes for it is
        # non-genuine, so the baseline's Minimality violation is intrinsic.
        sends=(Send(1, "g1", 0),),
        faults=random_plan(7, "full", process_count=6, groups=("g1", "g2")),
        name="broadcast-baseline",
    )


def shrink_demo(out: str = "") -> int:
    """Minimize a violating plan against the broadcast baseline."""
    from repro.faults.shrink import (
        repro_payload,
        replay_repro,
        shrink_plan,
        write_repro,
    )

    spec = shrink_demo_spec()
    plan = spec.faults
    minimal, shrinker = shrink_plan(spec, harness="broadcast")
    payload = repro_payload(
        spec, minimal, plan, harness="broadcast", shrinker=shrinker
    )
    print(
        f"shrink-demo: {len(plan)} events -> {len(minimal)} "
        f"({shrinker.evaluations} evaluations); "
        f"verdicts {payload['verdicts']}"
    )
    replay = replay_repro(payload)
    if replay["verdicts"] != payload["verdicts"]:
        print("shrink-demo: replay diverged from repro document")
        return 1
    if out:
        write_repro(out, payload)
        print(f"wrote {out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if len(minimal) <= 3 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="run the nemesis fault-injection smoke matrix",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=5,
        help="seeds per (backend, mix) cell (default: 5)",
    )
    parser.add_argument(
        "--mixes",
        default=",".join(MIXES),
        metavar="MIXES",
        help=f"comma-separated injector mixes (default: {','.join(MIXES)})",
    )
    parser.add_argument(
        "--backends",
        default="engine,kernel",
        metavar="BACKENDS",
        help="comma-separated backends to sweep (default: engine,kernel)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process execution)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="directory to write manifest.json + results.jsonl into",
    )
    parser.add_argument(
        "--shrink-demo",
        action="store_true",
        help="also run the broadcast-baseline shrinker demo",
    )
    parser.add_argument(
        "--repro-out",
        metavar="FILE",
        default="",
        help="where --shrink-demo writes its repro document",
    )
    args = parser.parse_args(argv)

    specs = matrix_specs(
        seeds=args.seeds,
        mixes=tuple(m.strip() for m in args.mixes.split(",") if m.strip()),
        backends=tuple(
            b.strip() for b in args.backends.split(",") if b.strip()
        ),
    )
    rows: list = []
    report = run_campaign(
        specs, workers=args.workers, out_dir=args.out, on_row=rows.append
    )

    print(sweep_table(rows))
    print()
    summary = report.summary
    print(
        f"fault matrix: {summary['scenarios']} scenarios, "
        f"{summary['ok']} ok, {summary['failed']} failed, "
        f"{summary['truncated']} truncated, "
        f"{sum(summary['violations'].values())} property violations "
        f"[{report.elapsed:.2f}s]"
    )
    if args.out:
        print(f"wrote {args.out}/manifest.json and {args.out}/results.jsonl")

    status = sweep_exit_status(summary)
    if args.shrink_demo:
        status = max(status, shrink_demo(args.repro_out))
    return status


if __name__ == "__main__":
    sys.exit(main())
