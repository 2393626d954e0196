"""``python -m repro.explore`` — the coverage-guided exploration CLI.

Runs a budgeted :class:`repro.explore.driver.Explorer` campaign over the
standard base scenarios (one fault-free cell per requested backend),
prints the deduplicated triage ledger, and writes ``report.json`` plus
one self-contained repro file per distinct violation into ``--out``.

Two flags turn this into the nightly soak lane:

* ``--baseline FILE`` compares the triage keys against a committed
  ``{"known": [...]}`` baseline and exits non-zero **only when a new
  distinct violation appears** — known violations (retained quirks,
  intrinsic baselines) keep the lane green;
* ``--wall-budget SECONDS`` bounds the campaign by wall clock instead
  of (or in addition to) ``--iterations``, so the nightly job costs a
  fixed amount regardless of how fast the runners are.

``--compare-random`` additionally runs the pure-sampling ablation
(``strategy="random"``) under the same seed and budget and prints the
coverage comparison — the quick console version of the committed
guided-vs-random curves in ``BENCH_explore.json`` at the repo root.

The ``supersede-wait`` rediscovery (EXPERIMENTS.md "Exploring the fault
space") is::

    python -m repro.explore --backends kernel --quirks supersede-wait \\
        --iterations 48 --seed 7 --out explore-artifacts
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional, Tuple

from repro.explore.driver import Explorer, load_baseline
from repro.groups.topology import paper_figure1_topology
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

#: Backends the CLI can build a base cell for.
BACKENDS = ("engine", "kernel", "async")


def base_cells(
    backends: Tuple[str, ...],
    quirks: Tuple[str, ...] = (),
    max_rounds: int = 240,
) -> List[ScenarioSpec]:
    """One fault-free base scenario per requested backend.

    The engine and async backends run the paper's Figure 1 topology
    (overlapping groups); the kernel backend needs pairwise-disjoint
    groups, so it runs a two-group disjoint grid.  ``quirks`` attach to
    the **kernel** cell only — the quirk axis selects replicated-log
    kernel behaviour (see ``KNOWN_QUIRKS``) and is inert elsewhere.
    """
    unknown = set(backends) - set(BACKENDS)
    if unknown:
        raise ValueError(
            f"unknown backends {sorted(unknown)}; pick from {BACKENDS}"
        )
    figure1 = TopologySpec.capture(paper_figure1_topology())
    disjoint = TopologySpec.capture(disjoint_topology(2, group_size=3))
    cells: List[ScenarioSpec] = []
    if "engine" in backends:
        cells.append(
            ScenarioSpec(
                topology=figure1,
                sends=(
                    Send(1, "g1", 0),
                    Send(3, "g2", 0),
                    Send(4, "g3", 1),
                    Send(5, "g4", 1),
                ),
                backend="engine",
                max_rounds=max_rounds,
                name="engine-base",
            )
        )
    if "kernel" in backends:
        cells.append(
            ScenarioSpec(
                topology=disjoint,
                sends=(Send(1, "g1", 0), Send(4, "g2", 0)),
                backend="kernel",
                max_rounds=max_rounds,
                quirks=quirks,
                name="kernel-base",
            )
        )
    if "async" in backends:
        cells.append(
            ScenarioSpec(
                topology=figure1,
                sends=(Send(1, "g1", 0), Send(2, "g2", 1)),
                backend="async",
                max_rounds=max(400, max_rounds),
                delay_model=("uniform", 0.1, 0.9),
                name="async-base",
            )
        )
    return cells


class _GracefulStop:
    """SIGINT/SIGTERM → stop at the next iteration boundary.

    The first signal requests a graceful stop: the explorer finishes
    its in-flight iteration (corpus entries and cached rows are
    write-through, so nothing needs an explicit flush), prints the
    partial ledger and writes a partial ``report.json`` marked
    ``interrupted``.  A second signal restores the default disposition
    and re-raises itself — an explorer wedged inside one iteration can
    still be killed the ordinary way.
    """

    def __init__(self) -> None:
        self.signum: Optional[int] = None
        self._previous: dict = {}

    def install(self) -> "_GracefulStop":
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                pass  # non-main thread / unsupported platform: no-op
        return self

    def uninstall(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()

    def _handle(self, signum, frame) -> None:
        if self.signum is not None:
            # Second signal: give up on graceful, die the normal way.
            signal.signal(signum, signal.SIG_DFL)
            signal.raise_signal(signum)
            return
        self.signum = signum
        name = signal.Signals(signum).name
        print(
            f"\n{name}: finishing the in-flight iteration, then writing "
            f"the partial report (repeat to force-quit)",
            file=sys.stderr,
        )

    def stopped(self) -> bool:
        return self.signum is not None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="coverage-guided fault/schedule exploration",
    )
    parser.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="step budget (default: 64 unless --wall-budget is given)",
    )
    parser.add_argument(
        "--wall-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; with --iterations, first exhausted wins",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--strategy", choices=("guided", "random"), default="guided",
    )
    parser.add_argument(
        "--epsilon", type=float, default=0.25,
        help="fresh-draw probability once the corpus is non-empty",
    )
    parser.add_argument(
        "--backends", default="engine,kernel", metavar="BACKENDS",
        help="comma-separated base backends (default: engine,kernel)",
    )
    parser.add_argument(
        "--quirks", default="", metavar="QUIRKS",
        help="comma-separated retained quirks for the kernel base "
        "(e.g. supersede-wait)",
    )
    parser.add_argument(
        "--max-rounds", type=int, default=240,
        help="round budget per run (default: 240; async floors at 400)",
    )
    parser.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="persistent corpus directory (default: in-memory)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="campaign result cache (shared with python -m repro.campaign; "
        "search iterations and shrink probes both land here)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="directory for report.json and repro-*.json files",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="known-violations baseline; exit non-zero only on NEW "
        "distinct violations",
    )
    parser.add_argument(
        "--compare-random", action="store_true",
        help="also run the pure-random ablation under the same budget",
    )
    args = parser.parse_args(argv)

    iterations = args.iterations
    if iterations is None and args.wall_budget is None:
        iterations = 64
    backends = tuple(
        b.strip() for b in args.backends.split(",") if b.strip()
    )
    quirks = tuple(q.strip() for q in args.quirks.split(",") if q.strip())
    bases = base_cells(backends, quirks=quirks, max_rounds=args.max_rounds)

    explorer = Explorer(
        bases,
        seed=args.seed,
        strategy=args.strategy,
        epsilon=args.epsilon,
        corpus=args.corpus_dir,
        cache=args.cache_dir,
        out_dir=args.out,
    )
    stop = _GracefulStop().install()
    try:
        report = explorer.run(
            iterations=iterations,
            wall_budget=args.wall_budget,
            should_stop=stop.stopped,
        )
    finally:
        stop.uninstall()

    partial = " (partial: interrupted)" if report.interrupted else ""
    print(
        f"explore[{report.strategy}]{partial}: "
        f"{report.iterations} iterations, "
        f"{report.coverage} distinct fingerprints, "
        f"{explorer.violations} violating runs, "
        f"{len(report.triage)} distinct violations, "
        f"{explorer.inadmissible} inadmissible probes "
        f"[{report.elapsed:.2f}s, {explorer.cache_hits} cache hits]"
    )
    for record in report.triage:
        shrunk = (
            f"shrunk {record['original_events']}->"
            f"{record['minimal_events']} events"
            if "minimal_events" in record
            else "unshrunk"
        )
        print(
            f"  [{','.join(record['properties'])}] x{record['count']} {shrunk} "
            f"plan={record['plan_hash'][:10]} "
            f"(first at iteration {record['first_iteration']})"
        )

    if args.compare_random and not report.interrupted:
        ablation = Explorer(bases, seed=args.seed, strategy="random")
        random_report = ablation.run(
            iterations=iterations, wall_budget=args.wall_budget
        )
        print(
            f"compare: guided {report.coverage} vs random "
            f"{random_report.coverage} distinct fingerprints under the "
            f"same budget "
            f"({report.coverage - random_report.coverage:+d} guided)"
        )

    if args.out:
        path = report.write(args.out)
        print(f"wrote {path}")

    if args.baseline is not None:
        new = report.new_keys(load_baseline(args.baseline))
        if new:
            print(f"NEW violations vs {args.baseline}:")
            for key in new:
                print(f"  {key}")
            if not report.interrupted:
                return 1
        elif not report.interrupted:
            print(
                f"no new violations vs {args.baseline} "
                f"({len(report.triage)} known)"
            )
    if report.interrupted:
        # Conventional interrupted-by-signal exit code: the partial
        # report is on disk, but the campaign did not run to budget, so
        # neither a green soak lane nor a red one can be claimed.
        return 128 + (stop.signum or signal.SIGINT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
