"""Algorithm 1 reads ``gamma(g)`` through the route of ``g``.

``Algorithm1Process._gamma_partners(t, g)`` samples the timeline that
``g``'s route bound once (``Mu.gamma_timeline``) instead of asking
``Mu.gamma_partners`` on every commit and stable scan.  Over Figure 1,
ring5 and hub4, one crash per cell, under ``full`` plans (whose
``gamma_delay`` events make ``perturb_mu`` rebuild ``gamma``) and
``recovery`` plans (crash–recover rejoins), seeds 0–9: every member of
every group answers what the run's ``mu.gamma_partners(t, g)`` does, at
every time up to two past the last instant of any ``gamma(g)``.
"""

import pytest

from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import crash_pattern
from repro.workloads.runner import random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec
from repro.workloads.topologies import hub_topology, ring_topology

TOPOLOGIES = {
    "figure1": paper_figure1_topology,
    "ring5": lambda: ring_topology(5),
    "hub4": lambda: hub_topology(4),
}


@pytest.mark.parametrize("mix", ["full", "recovery"])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_route_gamma_answers_what_mu_does(name, mix):
    topology = TOPOLOGIES[name]()
    processes = sorted(topology.processes)
    groups = tuple(g.name for g in topology.groups)
    moved = lagged = 0
    for seed in range(10):
        victim = processes[seed % len(processes)]
        spec = ScenarioSpec.capture(
            topology,
            crash_pattern(topology.processes, {victim: 2 + seed}),
            random_sends(topology, 8, seed=seed),
            seed=seed,
            max_rounds=300,
            faults=random_plan(seed, mix, len(processes), groups),
        )
        system = run_scenario(spec).host
        mu = system.mu
        lagged += mu.gamma.detection_lag > 0
        last = max(
            (i for g in topology.groups for i in mu.gamma_timeline(g).instants),
            default=0,
        )
        moved += last > 0
        for g in sorted(topology.groups):
            for pid in sorted(g.members):
                process = system.processes[pid]
                # A member that saw no message to ``g`` has no route yet.
                process._route(system.make_message(pid, g.name))
                for t in range(last + 3):
                    assert process._gamma_partners(t, g) == mu.gamma_partners(
                        t, g
                    ), (seed, pid, g.name, t)
    assert moved  # some cell's gamma(g) changes over the run
    if mix == "full":
        assert lagged  # and some cell runs on perturb_mu's rebuilt gamma
