"""``python -m repro.campaign`` — the built-in sweeps.

``--grid smoke`` (the default) runs a small campaign over the paper's
Figure 1 topology plus a ring, a chain and a hub, across several seeds
and both protocol variants.  ``--grid nemesis`` runs Algorithm 1 and the
Appendix-A kernel under random admissible fault plans: every base, every
backend it supports and every injector mix, one plan per seed.  Either
way the sweep writes the campaign artifacts (``manifest.json`` +
``results.jsonl``), prints the rows that are not clean and the
aggregate; the exit status is non-zero when any scenario failed, tripped
the admissibility auditor or violated a checked property.  CI runs both
grids.

``--seeds A:B`` sweeps a half-open seed range, so a soak runs seeds no
earlier sweep ran.  A red sweep triages its own rows
(:func:`repro.campaign.triage.triage`); with ``--out`` the repro files
and the ``triage.json`` ledger land beside the artifacts.

``--backends`` adds the Appendix-A kernel backend and/or the
real-asynchrony ``async`` backend to the smoke grid.  The kernel backend
requires pairwise-disjoint destination groups, so asking for a
non-engine backend swaps the smoke cases for a disjoint grid (which
every requested backend then shares, keeping rows comparable across the
backend axis — including engine-vs-kernel-vs-async agreement cells).
``--delay-model`` sweeps the async backend's channel-latency axis.  The
nemesis grid fixes both axes, so it refuses the two flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Union

from repro.campaign.cache import ensure_cache
from repro.campaign.executor import run_campaign
from repro.campaign.grid import Campaign, case
from repro.campaign.triage import triage, violated_properties
from repro.faults.nemesis import MIXES
from repro.groups.topology import paper_figure1_topology
from repro.metrics.sweep import sweep_exit_status, sweep_table
from repro.model.errors import SimulationError
from repro.runtime.delay import parse_delay_model
from repro.workloads.runner import Send, open_loop_sends
from repro.workloads.spec import BACKENDS
from repro.workloads.topologies import (
    chain_topology,
    disjoint_topology,
    hub_topology,
    ring_topology,
)


def smoke_campaign(
    seeds: Union[int, range] = 2,
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
        seeds=_seed_axis(seeds),
        variants=variants,
        backends=tuple(backends),
        delay_models=tuple(delay_models),
        max_rounds=max_rounds,
    )


def nemesis_campaign(seeds: Union[int, range] = 5) -> Campaign:
    """The nemesis grid: 4 bases x their backends x 6 mixes x ``seeds``.

    Figure 1, a 5-ring and a 4-hub run on the engine and async
    backends, a 3x3 disjoint grid on all three (the kernel expands over
    disjoint cases only), each with 12 open-loop sends, two per round.
    Cell ``(base, backend, mix, s)`` runs ``random_plan(s, mix, ...)``
    of its base at schedule seed ``s``: 54 cells per seed.  Async cells
    use the backend's default delay model
    (:data:`repro.runtime.delay.DEFAULT_DELAY_SPEC`).
    """
    cases = tuple(
        case(label, topology, sends=open_loop_sends(topology, 12))
        for label, topology in (
            ("figure1", paper_figure1_topology()),
            ("ring5", ring_topology(5)),
            ("hub4", hub_topology(4)),
            ("disjoint3x3", disjoint_topology(3, group_size=3)),
        )
    )
    return Campaign(
        name="nemesis",
        cases=cases,
        seeds=_seed_axis(seeds),
        backends=("engine", "kernel", "async"),
        faults=MIXES,
    )


def _seed_axis(seeds: Union[int, range]) -> tuple:
    """``N`` is seeds ``0..N-1``; a range is itself."""
    return tuple(range(seeds) if isinstance(seeds, int) else seeds)


def seed_range(text: str) -> range:
    """``--seeds``: ``N`` is ``0:N``; ``A:B`` the half-open range.

    A range that runs no seed, or starts below 0, is refused: a sweep
    that runs nothing would report a green soak.
    """
    start, colon, stop = text.partition(":")
    try:
        seeds = range(int(start), int(stop)) if colon else range(int(start))
    except ValueError:
        seeds = range(0)
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(
            f"expected N >= 1 or A:B with 0 <= A < B, got {text!r}"
        )
    return seeds


def is_clean(row: dict) -> bool:
    """An ok row that delivered everywhere and violates nothing."""
    return (
        row.get("status") == "ok"
        and bool(row.get("delivered_everywhere"))
        and not violated_properties(row)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="run a built-in campaign sweep",
    )
    parser.add_argument(
        "--grid",
        choices=("smoke", "nemesis"),
        default="smoke",
        help="which sweep: the smoke grid (default) or the nemesis "
        "fault grid",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process execution)",
    )
    parser.add_argument(
        "--seeds",
        type=seed_range,
        default=range(2),
        metavar="N|A:B",
        help="seeds per case: N runs seeds 0..N-1, A:B the half-open "
        f"range (scenario count: smoke {len(smoke_campaign(1).specs())} "
        f"x seeds, nemesis {len(nemesis_campaign(1).specs())} x seeds)",
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
        help="result cache directory: a cell already executed under the "
        "same spec_hash replays its stored row instead of re-running, so "
        "an interrupted sweep rerun over the same cache continues where "
        "it stopped",
    )
    parser.add_argument(
        "--backends",
        default=None,
        metavar="BACKENDS",
        help="comma-separated execution backends to sweep "
        "('engine', 'kernel', 'async' or any mix; a non-engine backend "
        "switches the smoke grid to disjoint topologies; default: engine; "
        "smoke grid only)",
    )
    parser.add_argument(
        "--delay-model",
        action="append",
        default=None,
        metavar="SPEC",
        help="delay model for the async backend, e.g. 'uniform:0.1:0.9', "
        "'exponential:1.0:8' or 'slow_pairs:4:1-2,2-1'; repeat the flag "
        "to sweep several (only async cells expand over this axis; "
        "default: the backend's uniform default; smoke grid only)",
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
        help="per-cell wall-clock budget, armed inside the cell (serial "
        "or pool): a cell still running after SECONDS stops and yields a "
        "failed row with error='timeout' instead of hanging the sweep; "
        "triage's shrink probes run under the same budget",
    )
    args = parser.parse_args(argv)

    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error(f"--cell-timeout must be positive, got {args.cell_timeout}")

    if args.grid == "nemesis":
        for flag, value in (
            ("--backends", args.backends),
            ("--delay-model", args.delay_model),
        ):
            if value is not None:
                parser.error(f"{flag} applies to the smoke grid only")
        campaign = nemesis_campaign(seeds=args.seeds)
    else:
        try:
            delay_models = (
                (None,)
                if not args.delay_model
                else tuple(parse_delay_model(text) for text in args.delay_model)
            )
        except (ValueError, SimulationError) as exc:
            parser.error(f"--delay-model: {exc}")
        backends = tuple(
            b.strip() for b in (args.backends or "engine").split(",") if b.strip()
        )
        if not backends or not set(backends) <= set(BACKENDS):
            parser.error(f"--backends: pick from {BACKENDS}, got {args.backends!r}")
        campaign = smoke_campaign(
            seeds=args.seeds, backends=backends, delay_models=delay_models
        )
    # Only the rows the table and triage act on: a clean row is on disk
    # (with --out) and in the summary, and holding it would undo the
    # executor's bounded-memory streaming.
    red: list = []
    shared = dict(  # triage's probes share the sweep's cache and backstops
        cache=ensure_cache(args.cache_dir),
        out_dir=args.out,
        stall_window=args.stall_window,
        cell_timeout=args.cell_timeout,
    )
    report = run_campaign(
        campaign,
        workers=args.workers,
        on_row=lambda row: None if is_clean(row) else red.append(row),
        **shared,
    )

    if red:
        print(sweep_table(red))
        print()
    summary = report.summary
    print(
        f"campaign {report.name!r} ({report.campaign_hash[:12]}): "
        f"{summary['scenarios']} scenarios, {summary['ok']} ok, "
        f"{summary['failed']} failed, {summary['delivered']} delivered, "
        f"{summary['truncated']} truncated, "
        f"{sum(summary['violations'].values())} property violations "
        f"[{report.mode}, workers={report.workers}, "
        f"executed={report.executed} cached={report.cached}, "
        f"{report.elapsed:.2f}s]"
    )
    if args.out:
        print(f"streamed {args.out}/manifest.json and {args.out}/results.jsonl")

    ledger = triage(red, **shared)
    if ledger:
        print(f"triage: {len(ledger)} distinct violations")
    for record in ledger:
        print(
            f"  [{','.join(record['properties'])}] x{record['count']} "
            f"events {record['original_events']}->"
            f"{record.get('minimal_events', 'unshrunk')} "
            f"plan={record['plan_hash'][:10]} (first {record['first_cell']})"
        )

    return sweep_exit_status(summary)


if __name__ == "__main__":
    sys.exit(main())
