#!/usr/bin/env python3
"""Contention, the convoy effect and crash failover (§6.2 and Fig. 1).

Two demonstrations:

1. **Convoy effect** — in a chain of intersecting groups, a message to
   the first group cannot be delivered until the messages contending in
   each intersection are ordered; its latency grows with the contention
   chain length even though its own group is idle ([1], §6.2's
   motivation for strong genuineness).

2. **Failover** — on the Figure 1 topology we crash p2 = g1∩g2 and watch
   the gamma detector unblock the survivors: the cyclic families through
   the dead edge are excluded and delivery proceeds without it.
"""

from repro import (
    AtomicMulticast,
    MulticastSystem,
    assert_run_ok,
    crash_pattern,
    failure_free,
    make_processes,
    paper_figure1_topology,
    pset,
)
from repro.metrics.summary import format_table, latency_of
from repro.workloads.topologies import chain_topology


def convoy_demo() -> None:
    print("=== Convoy effect: latency vs contention chain length ===")
    rows = []
    for k in (2, 3, 4, 5):
        topology = chain_topology(k)
        processes = make_processes(k + 1)
        system = MulticastSystem(
            topology, failure_free(pset(processes)), seed=5
        )
        amc = AtomicMulticast(system)
        # Contention all along the chain, then the probe to g1.
        for i in range(k - 1, 0, -1):
            amc.multicast(processes[i], f"g{i + 1}")
        probe = amc.multicast(processes[0], "g1")
        amc.run()
        rows.append((k, latency_of(system.record, probe)))
        assert_run_ok(system.record)
    print(format_table(("chain length", "probe latency (rounds)"), rows))
    print("  -> the probe's latency tracks the chain it never asked for.\n")


def failover_demo() -> None:
    print("=== Failover on Figure 1: crash p2 = g1∩g2 ===")
    topology = paper_figure1_topology()
    processes = make_processes(5)
    p1, p2, p3, p4, p5 = processes
    pattern = crash_pattern(pset(processes), {p2: 3})
    system = MulticastSystem(topology, pattern, seed=9)
    amc = AtomicMulticast(system)

    m1 = amc.multicast(p1, "g1", payload="pre-crash to g1")
    m2 = amc.multicast(p3, "g2", payload="pre-crash to g2")
    rounds = amc.run()
    m3 = amc.multicast(p1, "g3", payload="post-crash to g3")
    rounds += amc.run()

    gamma_output = system.mu.gamma.query(p1, system.time)
    print(f"  quiescent after {rounds} rounds")
    print(f"  cyclic families still alive at p1: {len(gamma_output)} "
          f"(of {len(topology.cyclic_families())})")
    for message in (m1, m2, m3):
        who = sorted(q.name for q in system.record.delivered_by(message))
        print(f"  {message.payload!r} delivered by {who}")
    assert_run_ok(system.record)
    print("  properties machine-checked: OK")


def main() -> None:
    convoy_demo()
    failover_demo()


if __name__ == "__main__":
    main()
