#!/usr/bin/env python3
"""Campaign sweep: run a grid of seeded scenarios through the campaign API.

A :class:`repro.campaign.grid.Campaign` is a declarative grid: a handful of
named cases (topology + failure pattern + send script) crossed with
seeds and protocol variants.  ``Campaign.specs()`` expands the grid into
frozen, hashable :class:`repro.workloads.spec.ScenarioSpec` values;
``run_campaign`` executes them — serially or on a process pool — and
aggregates one JSON-ready row per scenario, property verdicts included.

The aggregated artifacts (``manifest.json`` + ``results.jsonl``) are
byte-stable: the same campaign serializes identically no matter how many
workers ran it, so sweep outputs diff cleanly across machines.
"""

import sys
import tempfile

from repro import crash_pattern, make_processes, paper_figure1_topology, pset
from repro.campaign.executor import run_campaign
from repro.campaign.grid import Campaign, case
from repro.metrics.sweep import sweep_table
from repro.workloads.runner import Send
from repro.workloads.topologies import ring_topology


def main() -> None:
    figure1 = paper_figure1_topology()
    procs = make_processes(5)
    sends = (
        Send(1, "g1", 0),
        Send(3, "g2", 0),
        Send(4, "g3", 1),
        Send(2, "g1", 2),
    )

    campaign = Campaign(
        name="quickstart-sweep",
        cases=(
            # Figure 1, failure-free.
            case("figure1", figure1, sends=sends),
            # Figure 1 with p2 = g1∩g2 crashing at round 4.
            case("figure1-crash", figure1, sends=sends, crashes=((2, 4),)),
            # A 4-ring: one big cyclic family.
            case(
                "ring4",
                ring_topology(4),
                sends=(Send(1, "g1", 0), Send(3, "g3", 0), Send(2, "g2", 1)),
            ),
        ),
        seeds=(0, 1, 2),
        variants=("vanilla", "strict"),
    )

    specs = campaign.specs()
    print(f"Campaign '{campaign.name}': {len(specs)} scenarios "
          f"({len(campaign.cases)} cases x {len(campaign.seeds)} seeds "
          f"x {len(campaign.variants)} variants)\n")

    # workers=2 fans out over a process pool; workers=1 runs in-process.
    # Either way the aggregated rows are byte-identical.  out_dir writes
    # the artifacts as rows arrive; on_row sees each row for the table.
    out = tempfile.mkdtemp(prefix="campaign-")
    rows = []
    report = run_campaign(
        campaign, workers=2, out_dir=out, on_row=rows.append
    )

    print(sweep_table(rows))
    summary = report.summary
    print(f"\n{summary['ok']}/{summary['scenarios']} scenarios ok, "
          f"{summary['delivered']} delivered everywhere, "
          f"{sum(summary['violations'].values())} property violations, "
          f"mean rounds {summary['mean_rounds']}")

    print(f"\nArtifacts: {out}/manifest.json\n           {out}/results.jsonl")

    if summary["failed"] or sum(summary["violations"].values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
