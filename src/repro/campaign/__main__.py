"""``python -m repro.campaign`` — the built-in smoke sweep.

Runs a small campaign over the paper's Figure 1 topology plus a ring, a
chain and a hub, across several seeds and both protocol variants, then
writes the campaign artifacts (``manifest.json`` + ``results.jsonl``)
and prints the aggregate.  CI uses this as the campaign smoke job; the
exit status is non-zero when any scenario failed or violated a checked
property.

``--backends`` adds the Appendix-A kernel backend and/or the
real-asynchrony ``async`` backend.  The kernel backend requires
pairwise-disjoint destination groups, so asking for a non-engine
backend swaps the smoke cases for a disjoint grid (which every
requested backend then shares, keeping rows comparable across the
backend axis — including engine-vs-kernel-vs-async agreement cells).
``--delay-model`` sweeps the async backend's channel-latency axis.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.executor import run_campaign
from repro.campaign.grid import Campaign, case
from repro.groups.topology import paper_figure1_topology
from repro.metrics.sweep import sweep_exit_status, sweep_table
from repro.runtime.delay import parse_delay_model
from repro.workloads.runner import Send
from repro.workloads.topologies import (
    chain_topology,
    disjoint_topology,
    hub_topology,
    ring_topology,
)


def smoke_campaign(
    seeds: int = 2,
    max_rounds: int = 600,
    backends: tuple = ("engine",),
    delay_models: tuple = (None,),
) -> Campaign:
    """The default smoke grid: 4 cases x ``seeds`` x 2 variants.

    With ``"kernel"`` or ``"async"`` among the backends the cases switch
    to disjoint topologies (the kernel backend's requirement, and the
    one grid every backend can share) with minority-per-group crashes,
    and the variant axis collapses to ``"vanilla"`` — those cells exist
    for cross-backend agreement, not variant coverage.
    """
    if "kernel" in backends or "async" in backends:
        cases = (
            case(
                "disjoint2x3",
                disjoint_topology(2, group_size=3),
                sends=(Send(1, "g1", 0), Send(4, "g2", 0), Send(2, "g1", 1)),
            ),
            case(
                "disjoint2x3-crash",
                disjoint_topology(2, group_size=3),
                crashes=((3, 5),),  # one g1 member: still a live majority
                sends=(Send(1, "g1", 0), Send(5, "g2", 1), Send(2, "g1", 2)),
            ),
            case(
                "disjoint3x3",
                disjoint_topology(3, group_size=3),
                sends=(Send(2, "g1", 0), Send(4, "g2", 0), Send(8, "g3", 1)),
            ),
            case(
                "disjoint3x3-crash",
                disjoint_topology(3, group_size=3),
                crashes=((5, 4),),  # one g2 member
                sends=(Send(1, "g1", 0), Send(6, "g2", 0), Send(9, "g3", 2)),
            ),
        )
        variants = ("vanilla",)
    else:
        figure1 = paper_figure1_topology()
        cases = (
            case(
                "figure1-crash",
                figure1,
                crashes=((2, 4),),  # p2 = g1 ∩ g2 dies mid-run
                sends=(
                    Send(1, "g1", 0),
                    Send(3, "g2", 0),
                    Send(4, "g3", 1),
                    Send(5, "g4", 1),
                    Send(2, "g1", 2),
                ),
            ),
            case(
                "ring4",
                ring_topology(4),
                sends=(Send(1, "g1", 0), Send(2, "g2", 0), Send(3, "g3", 1)),
            ),
            case(
                "chain3",
                chain_topology(3),
                sends=(Send(1, "g1", 0), Send(2, "g2", 0), Send(4, "g3", 1)),
            ),
            case(
                "hub3",
                hub_topology(3),
                sends=(Send(2, "g1", 0), Send(3, "g2", 0), Send(4, "g3", 0)),
            ),
        )
        variants = ("vanilla", "strict")
    return Campaign(
        name="smoke",
        cases=cases,
        seeds=tuple(range(seeds)),
        variants=variants,
        backends=tuple(backends),
        delay_models=tuple(delay_models),
        max_rounds=max_rounds,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="run the built-in campaign smoke sweep",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process execution)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=2,
        help="seeds per case (scenario count = 8 x seeds)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="directory to stream manifest.json + results.jsonl into "
        "(rows are written as they finish, not at the end)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache directory: cells already executed under the "
        "same (spec_hash, seed, backend, fault_plan) replay their stored "
        "row instead of re-running",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue a partial results.jsonl in --out from its first "
        "missing row (requires --out)",
    )
    parser.add_argument(
        "--shard",
        metavar="K/N",
        default=None,
        help="run only hash-prefix shard K of N (e.g. '0/4'); rows keep "
        "their global grid indices so per-shard artifacts merge cleanly",
    )
    parser.add_argument(
        "--backends",
        default="engine",
        metavar="BACKENDS",
        help="comma-separated execution backends to sweep "
        "('engine', 'kernel', 'async' or any mix; a non-engine backend "
        "switches the smoke grid to disjoint topologies; default: engine)",
    )
    parser.add_argument(
        "--delay-model",
        action="append",
        default=None,
        metavar="SPEC",
        help="delay model for the async backend, e.g. 'uniform:0.1:0.9', "
        "'exponential:1.0:8' or 'slow_pairs:4:1-2,2-1'; repeat the flag "
        "to sweep several (only async cells expand over this axis; "
        "default: the backend's uniform default)",
    )
    parser.add_argument(
        "--stall-window",
        type=int,
        default=None,
        metavar="ROUNDS",
        help="arm the per-run stall watchdog: a run making no delivery/"
        "apply progress for this many rounds fails its cell with a "
        "triaged wait-reason histogram instead of burning its round "
        "budget (pick a window above the protocol's natural commit "
        "latency; the planted supersede-wait stall trips at 100)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget: the sweep runs on a process "
        "pool (of one with --workers 1) and a cell that exceeds the "
        "budget yields a failed row with error='timeout' instead of "
        "hanging the sweep",
    )
    args = parser.parse_args(argv)

    if args.resume and not args.out:
        parser.error("--resume requires --out")
    shard = None
    if args.shard is not None:
        try:
            k, n = (int(part) for part in args.shard.split("/", 1))
        except ValueError:
            parser.error("--shard must look like K/N, e.g. 0/4")
        shard = (k, n)

    delay_models = (
        (None,)
        if not args.delay_model
        else tuple(parse_delay_model(text) for text in args.delay_model)
    )
    campaign = smoke_campaign(
        seeds=args.seeds,
        backends=tuple(
            b.strip() for b in args.backends.split(",") if b.strip()
        ),
        delay_models=delay_models,
    )
    rows: list = []  # the smoke table below wants the rows
    report = run_campaign(
        campaign,
        workers=args.workers,
        mode="process" if args.cell_timeout is not None else None,
        cache=args.cache_dir,
        out_dir=args.out,
        resume=args.resume,
        shard=shard,
        stall_window=args.stall_window,
        cell_timeout=args.cell_timeout,
        on_row=rows.append,
    )

    print(sweep_table(rows))
    print()
    summary = report.summary
    print(
        f"campaign {report.name!r} ({report.campaign_hash[:12]}): "
        f"{summary['scenarios']} scenarios, {summary['ok']} ok, "
        f"{summary['failed']} failed, {summary['delivered']} delivered, "
        f"{summary['truncated']} truncated, "
        f"{sum(summary['violations'].values())} property violations "
        f"[{report.mode}, workers={report.workers}, "
        f"executed={report.executed} cached={report.cached} "
        f"resumed={report.resumed}, {report.elapsed:.2f}s]"
    )
    if args.out:
        print(f"streamed {args.out}/manifest.json and {args.out}/results.jsonl")

    return sweep_exit_status(summary)


if __name__ == "__main__":
    sys.exit(main())
