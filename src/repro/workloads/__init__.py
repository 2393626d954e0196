"""Workload generation: topologies, send scripts and the scenario runner."""

from repro.workloads.runner import (
    ScenarioResult,
    Send,
    random_sends,
    run_scenario,
    triage_line,
    triage_record,
)
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import (
    GENERATORS,
    build_generator,
    chain_topology,
    disjoint_topology,
    hub_topology,
    random_topology,
    ring_topology,
    sparse_overlap_topology,
)

__all__ = [
    "ScenarioResult",
    "ScenarioSpec",
    "Send",
    "TopologySpec",
    "random_sends",
    "run_scenario",
    "triage_line",
    "triage_record",
    "GENERATORS",
    "build_generator",
    "chain_topology",
    "disjoint_topology",
    "hub_topology",
    "random_topology",
    "ring_topology",
    "sparse_overlap_topology",
]
