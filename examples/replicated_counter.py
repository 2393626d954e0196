#!/usr/bin/env python3
"""Linearizable replicated objects over *strict* atomic multicast (§6.1).

The paper's §6.1 observes that vanilla atomic multicast is too weak for
state-machine replication: a command submitted after another completed
could still be ordered before it.  The strict variation (whose weakest
detector strengthens mu with the indicators 1^{g∩h}) closes the gap.

This example replicates counters over two overlapping replica groups and
shows (i) convergence, (ii) real-time order preservation across sequential
clients, and (iii) a replica crash being absorbed.
"""

from repro import (
    MulticastSystem,
    crash_pattern,
    make_processes,
    pset,
    topology_from_indices,
)
from repro.core.smr import ReplicatedStateMachine
from repro.props.checkers import check_strict_ordering


def main() -> None:
    topology = topology_from_indices(
        4,
        {
            "tickets": [1, 2, 3],   # replica group for ticket counters
            "billing": [2, 3, 4],   # replica group for billing counters
        },
    )
    processes = make_processes(4)
    p1, p2, p3, p4 = processes

    # Replica p3 (in both groups) crashes mid-run.
    pattern = crash_pattern(pset(processes), {p3: 12})
    system = MulticastSystem(topology, pattern, variant="strict", seed=3)
    smr = ReplicatedStateMachine(system)

    print("Client 1 books two tickets...")
    smr.submit(p1, "tickets", ("incr", "sold"))
    smr.submit(p1, "tickets", ("incr", "sold"))
    smr.run()
    print(f"  tickets sold at p2: {smr.read(p2, 'sold')}")

    print("Client 2 bills — strictly after the bookings completed...")
    bill = smr.submit(p4, "billing", ("put", "invoice", "2-tickets"))
    smr.run()
    print(f"  invoice at p4: {smr.read(p4, 'invoice')}")
    print(f"  output computed by replica p2: {smr.output_of(p2, bill)}")

    print("A cross-group audit command after the crash of p3...")
    smr.submit(p2, "tickets", ("incr", "audits"))
    smr.run()

    for p in processes:
        status = "CRASHED" if pattern.is_faulty(p) else "ok"
        print(f"  {p.name} [{status}]: {smr.state_at(p)}")

    violations = check_strict_ordering(system.record)
    print(f"Strict (real-time) ordering machine-checked: "
          f"{'OK' if not violations else violations}")

    # Replicas of the same group converge on their shared keys.
    assert smr.read(p1, "sold") == smr.read(p2, "sold") == 2
    assert smr.read(p2, "invoice") == smr.read(p4, "invoice")
    print("Replica convergence: OK")


if __name__ == "__main__":
    main()
