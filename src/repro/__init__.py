"""repro — genuine atomic multicast and its weakest failure detector.

A from-scratch reproduction of Pierre Sutra, *The Weakest Failure
Detector for Genuine Atomic Multicast* (PODC 2022, extended version).

Quickstart::

    from repro import (
        AtomicMulticast, MulticastSystem, paper_figure1_topology,
        failure_free, make_processes, pset,
    )

    topology = paper_figure1_topology()
    processes = make_processes(5)
    system = MulticastSystem(topology, failure_free(pset(processes)))
    amc = AtomicMulticast(system)
    message = amc.multicast(processes[0], "g1", payload="hello")
    amc.run()
    print(amc.delivered_at(processes[1]))

Packages:

* :mod:`repro.model` — processes, failures, messages, runs (Appendix A);
* :mod:`repro.groups` — destination groups, cyclic families (§3);
* :mod:`repro.detectors` — Sigma, Omega, gamma, 1^P, mu (§3);
* :mod:`repro.objects` — shared logs, consensus, the object space (§4.3);
* :mod:`repro.core` — Algorithm 1 and its variants (§4, §6);
* :mod:`repro.substrates` — message-passing constructions (§4.3);
* :mod:`repro.emulation` — necessity extractions, Algorithms 2-5 (§5, §6);
* :mod:`repro.baselines` — broadcast, Skeen, partitioned, spanning tree
  (§2.3, §7);
* :mod:`repro.props` — executable correctness properties (§2.2);
* :mod:`repro.workloads`, :mod:`repro.metrics` — harness utilities.

This module re-exports the ten names the quickstart and ``examples/``
use; the sub-packages re-export nothing.  Import every other name from
the module that defines it (``from repro.workloads.runner import
run_scenario``).
"""

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.groups.topology import paper_figure1_topology, topology_from_indices
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset
from repro.props.checkers import assert_run_ok

__version__ = "1.0.0"

__all__ = [
    "AtomicMulticast",
    "MulticastSystem",
    "assert_run_ok",
    "by_indices",
    "crash_pattern",
    "failure_free",
    "make_processes",
    "paper_figure1_topology",
    "pset",
    "topology_from_indices",
    "__version__",
]
