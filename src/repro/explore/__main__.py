"""``python -m repro.explore`` — the fault/schedule exploration CLI.

Runs a budgeted :class:`repro.explore.driver.Explorer` campaign over the
standard base scenarios (one fault-free cell per requested backend),
prints the deduplicated triage ledger, and writes ``report.json`` plus
one self-contained repro file per distinct violation into ``--out``.

The exit status is 1 when the triage ledger holds any violation, 128 +
the signal number when a SIGINT / SIGTERM cut the campaign short, and 0
otherwise: there is no allow-list of known findings.  ``--wall-budget
SECONDS`` bounds the campaign by wall clock instead of (or in addition
to) ``--iterations``, so the nightly soak costs a fixed amount however
fast the runners are.

The ``supersede-wait`` rediscovery (EXPERIMENTS.md "Exploring the fault
space") exits 1, having found the stall::

    python -m repro.explore --backends kernel --quirks supersede-wait \\
        --iterations 48 --seed 7 --out explore-artifacts
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional, Tuple

from repro.explore.driver import Explorer
from repro.groups.topology import paper_figure1_topology
from repro.model.errors import SimulationError
from repro.workloads.runner import Send
from repro.workloads.spec import BACKENDS, ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

#: Round budget of the engine and kernel base cells (the async cell
#: runs 400).
MAX_ROUNDS = 240


def base_cells(
    backends: Tuple[str, ...], quirks: Tuple[str, ...] = ()
) -> List[ScenarioSpec]:
    """One fault-free base scenario per requested backend.

    The engine and async backends run the paper's Figure 1 topology
    (overlapping groups); the kernel backend needs pairwise-disjoint
    groups, so it runs a two-group disjoint grid.  ``quirks`` attach to
    the **kernel** cell only — the quirk axis selects replicated-log
    kernel behaviour (see ``KNOWN_QUIRKS``) — so quirks without a kernel
    cell raise :class:`ValueError` rather than run unquirked.
    """
    unknown = set(backends) - set(BACKENDS)
    if unknown:
        raise ValueError(
            f"unknown backends {sorted(unknown)}; pick from {BACKENDS}"
        )
    if quirks and "kernel" not in backends:
        raise ValueError(
            f"quirks {list(quirks)} apply to the kernel cell only; "
            f"add kernel to the backends"
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
                max_rounds=MAX_ROUNDS,
                name="engine-base",
            )
        )
    if "kernel" in backends:
        cells.append(
            ScenarioSpec(
                topology=disjoint,
                sends=(Send(1, "g1", 0), Send(4, "g2", 0)),
                backend="kernel",
                max_rounds=MAX_ROUNDS,
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
                max_rounds=400,
                delay_model=("uniform", 0.1, 0.9),
                name="async-base",
            )
        )
    return cells


class _GracefulStop:
    """SIGINT/SIGTERM → stop at the next iteration boundary.

    The first signal requests a graceful stop: the explorer finishes
    its in-flight iteration (cached rows are write-through, so nothing
    needs an explicit flush), prints the partial ledger and writes a
    partial ``report.json`` marked ``interrupted``.  A second signal
    restores the default disposition and re-raises itself — an explorer
    wedged inside one iteration can still be killed the ordinary way.
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
        description="random fault/schedule search with shrink and triage",
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
        "--backends", default="engine,kernel", metavar="BACKENDS",
        help="comma-separated base backends (default: engine,kernel)",
    )
    parser.add_argument(
        "--quirks", default="", metavar="QUIRKS",
        help="comma-separated retained quirks for the kernel base "
        "(e.g. supersede-wait; needs kernel among the backends)",
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
    args = parser.parse_args(argv)

    # A budget that runs nothing would report a green soak.
    for flag, budget in (
        ("--iterations", args.iterations),
        ("--wall-budget", args.wall_budget),
    ):
        if budget is not None and budget <= 0:
            parser.error(f"{flag} must be positive, got {budget}")
    iterations = args.iterations
    if iterations is None and args.wall_budget is None:
        iterations = 64
    backends = tuple(
        b.strip() for b in args.backends.split(",") if b.strip()
    )
    quirks = tuple(q.strip() for q in args.quirks.split(",") if q.strip())
    try:
        explorer = Explorer(
            base_cells(backends, quirks=quirks),
            seed=args.seed,
            cache=args.cache_dir,
            out_dir=args.out,
        )
    except (ValueError, SimulationError) as exc:
        parser.error(str(exc))
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
        f"explore{partial}: "
        f"{report.iterations} iterations, "
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

    if args.out:
        path = report.write(args.out)
        print(f"wrote {path}")

    if report.interrupted:
        # Conventional interrupted-by-signal exit code: the partial
        # report is on disk, but the campaign did not run to budget, so
        # neither a green soak lane nor a red one can be claimed.
        return 128 + (stop.signum or signal.SIGINT)
    return 1 if report.triage else 0


if __name__ == "__main__":
    sys.exit(main())
