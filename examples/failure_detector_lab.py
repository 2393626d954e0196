#!/usr/bin/env python3
"""Failure-detector laboratory: the necessity side of the paper.

The weakest-failure-detector result has two halves.  Sufficiency
(Algorithm 1) is what the other examples run.  This lab demonstrates the
*necessity* half: given atomic multicast as a black box, the paper's
Algorithms 2-4 extract the components of mu from it —

* Algorithm 2 squeezes a quorum detector ``Sigma_{g∩h}`` out of which
  participant subsets manage to deliver;
* Algorithm 3 squeezes the cyclicity detector ``gamma`` out of chains of
  multicasts around each cyclic family;
* Algorithm 4 squeezes the indicator ``1^{g∩h}`` out of a *strict*
  multicast box.

Each emulated history is validated against the exact same property
checkers as the ideal oracles.
"""

from repro import by_indices, crash_pattern, make_processes, pset
from repro.detectors.validation import check_gamma, check_indicator, check_sigma
from repro.emulation.gamma_extraction import GammaExtraction
from repro.emulation.indicator_extraction import IndicatorExtraction
from repro.emulation.sigma_extraction import SigmaExtraction
from repro.groups.topology import topology_from_indices
from repro.workloads.topologies import chain_topology, ring_topology


def sigma_lab() -> None:
    print("=== Algorithm 2: extracting Sigma_{g∩h} ===")
    topology = topology_from_indices(4, {"g": [1, 2, 3], "h": [2, 3, 4]})
    processes = make_processes(4)
    pattern = crash_pattern(pset(processes), {processes[1]: 6})
    extraction = SigmaExtraction(topology, pattern, ["g", "h"], seed=1)
    history = []
    for r in range(50):
        extraction.tick()
        if r % 5 == 0:
            for p in sorted(extraction.scope):
                if pattern.is_alive(p, extraction.time):
                    sample = extraction.query(p, extraction.time)
                    history.append((p, extraction.time, sample))
    p3 = processes[2]
    print(f"  scope g∩h = {sorted(q.name for q in extraction.scope)}")
    print(f"  p2 crashes at t=6; final quorum at p3: "
          f"{sorted(q.name for q in extraction.query(p3, extraction.time))}")
    violations = check_sigma(history, pattern, extraction.scope)
    print(f"  Intersection + Liveness validated: "
          f"{'OK' if not violations else violations}\n")


def gamma_lab() -> None:
    print("=== Algorithm 3: extracting gamma ===")
    topology = ring_topology(4)
    processes = make_processes(4)
    pattern = crash_pattern(pset(processes), {processes[2]: 4})
    extraction = GammaExtraction(topology, pattern, seed=2)
    history = []
    for _ in range(90):
        extraction.tick()
        for p in processes:
            if pattern.is_alive(p, extraction.time):
                history.append(
                    (p, extraction.time, extraction.query(p, extraction.time))
                )
    print("  4-group ring; p3 (= g2∩g3) crashes at t=4")
    for p in processes:
        if pattern.is_correct(p):
            out = extraction.query(p, extraction.time)
            print(f"  {p.name} final output: "
                  f"{len(out)} families (0 = the ring family was excluded)")
    violations = check_gamma(history, pattern, topology)
    print(f"  Accuracy + Completeness validated: "
          f"{'OK' if not violations else violations}\n")


def indicator_lab() -> None:
    print("=== Algorithm 4: extracting 1^{g∩h} from strict multicast ===")
    topology = chain_topology(2)
    processes = make_processes(3)
    pattern = crash_pattern(pset(processes), {processes[1]: 6})
    extraction = IndicatorExtraction(topology, pattern, "g1", "g2", seed=3)
    history = []
    for _ in range(70):
        extraction.tick()
        for p in processes:
            if pattern.is_alive(p, extraction.time):
                history.append(
                    (p, extraction.time, extraction.query(p, extraction.time))
                )
    print("  g1 = {p1,p2}, g2 = {p2,p3}; the watched set g1∩g2 = {p2}")
    for p in processes:
        print(f"  {p.name} indicator: {extraction.query(p, extraction.time)}")
    violations = check_indicator(history, pattern, extraction.watched)
    print(f"  Accuracy + Completeness validated: "
          f"{'OK' if not violations else violations}")


def main() -> None:
    sigma_lab()
    gamma_lab()
    indicator_lab()


if __name__ == "__main__":
    main()
