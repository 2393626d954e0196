#!/usr/bin/env python3
"""Shrink demo: minimize a fault plan against a violating protocol.

The §2.3 broadcast baseline sends every multicast to every process, so
it violates Minimality whatever the faults are.  ``shrink_plan`` runs
ddmin over a random ``full``-mix plan under the broadcast harness and
finds the smallest plan that still violates: the empty one.  The result
is a self-contained repro document that ``replay_repro`` re-runs; the
demo checks the replay agrees.

    python examples/shrink_demo.py [OUT.json]

With an argument the repro document is written there, else printed.
The exit status is non-zero if the replay diverges or the minimal plan
keeps more than three events.
"""

import json
import sys

from repro.faults.nemesis import random_plan
from repro.faults.shrink import replay_repro, repro_payload, shrink_plan, write_repro
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology


def shrink_demo_spec() -> ScenarioSpec:
    """The spec the demo minimizes under the broadcast harness."""
    return ScenarioSpec(
        topology=TopologySpec.capture(disjoint_topology(2, group_size=3)),
        # One send, one destination group: every step g2 takes for it is
        # non-genuine, so the baseline's Minimality violation is intrinsic.
        sends=(Send(1, "g1", 0),),
        faults=random_plan(7, "full", process_count=6, groups=("g1", "g2")),
        name="broadcast-baseline",
    )


def main(out: str = "") -> int:
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


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
