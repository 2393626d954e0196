"""The phase-dispatched action scan against the five-tests scan.

``Algorithm1Process.try_actions`` reads ``PHASE[m]`` once per live id and
runs only the action that phase enables.  The scan it replaced tried all
five actions on every id, each behind its own ``PHASE[m]`` check; it is
kept as ``_oracle.five_tests_scan``.  Here the same seeded cells run
under both, and after *every* scan of every process the two must agree
on what fired and on the state a scan leaves behind; at the end they must
have charged the same steps in the same order.
"""

from dataclasses import replace

import pytest

from repro.core.algorithm1 import Algorithm1Process
from repro.core.phases import DELIVER
from repro.groups.topology import paper_figure1_topology
from repro.objects.space import ObjectSpace
from repro.workloads.runner import Send, random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec

from ._oracle import five_tests_scan
from .test_order_frontier import BACKENDS, FAULTS as ALL_FAULTS, TOPOLOGIES

#: The fault axis: fault-free, a static crash, and a crash–recovery plan.
FAULTS = {name: ALL_FAULTS[name] for name in ("fault-free", "static-crash", "recovery")}

BUDGETS = (None, 1, 2)

ACTIONS = ("_try_pending", "_try_commit", "_try_stabilize", "_try_stable", "_try_deliver")


def run_recording_scans(spec, budget, oracle):
    """Run ``spec`` with every scan capped at ``budget`` (the actors pass
    none, so the cap is forced where the scan is entered) and return what
    each scan fired and left behind, plus the result."""
    scans = []
    init = Algorithm1Process.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if oracle:
            five_tests_scan(self)
        scan = self.try_actions

        def recorded(t, budget=None, _cap=budget):
            fired = scan(t, budget=_cap)
            scans.append(
                (
                    self.pid,
                    t,
                    fired,
                    dict(self.phase),
                    set(self.wait_reasons),
                    set(self._stabilized),
                )
            )
            return fired

        self.try_actions = recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Algorithm1Process, "__init__", recording_init)
        result = run_scenario(spec)
    return scans, result


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("variant", ["vanilla", "strict"])
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_dispatch_fires_what_the_five_tests_fire(
    topology_name, variant, fault, backend
):
    topology = TOPOLOGIES[topology_name]()
    seed = 7
    spec = ScenarioSpec(
        topology=TopologySpec.capture(topology),
        sends=tuple(random_sends(topology, 12, seed=seed, spread_rounds=1)),
        seed=seed,
        variant=variant,
        max_rounds=400,
    )
    spec = replace(spec, **FAULTS[fault](topology, seed), **BACKENDS[backend])
    for budget in BUDGETS:
        scans, result = run_recording_scans(spec, budget, oracle=False)
        expected_scans, expected = run_recording_scans(spec, budget, oracle=True)
        assert len(scans) == len(expected_scans)
        for got, want in zip(scans, expected_scans):
            assert got == want
        assert result.record.steps == expected.record.steps
        assert result.tracer.summary() == expected.tracer.summary()
        # Not vacuous: actions fired, and some scans ended blocked.
        assert sum(scan[2] for scan in scans) > 50
        assert any(scan[4] for scan in scans)


def test_dispatch_tries_one_action_per_visit_over_resolved_routes(monkeypatch):
    """Host-independent guard on a 120-multicast Figure 1 cell.

    A visit of a live id tries the action its phase enables, and one more
    per action fired, so tries stay within visits + fired (2 861 tries for
    1 046 visits and 1 858 actions here; the five-tests scan: 5 × visits =
    5 230).  Every object an action touches is on the
    route of the destination group, resolved on the process's first visit
    of that group: after it, the space is never asked for an intersection
    log again.
    """
    tries = {name: 0 for name in ACTIONS}
    visits = fired = 0
    lookups = {}  # (process, destination group) -> intersection_log calls

    for name in ACTIONS:
        def counted(self, *args, _action=getattr(Algorithm1Process, name), _name=name):
            tries[_name] += 1
            return _action(self, *args)

        monkeypatch.setattr(Algorithm1Process, name, counted)

    try_actions = Algorithm1Process.try_actions
    scanning = []

    def counted_scan(self, t, budget=None):
        nonlocal visits, fired
        self.discover()  # idempotent: the scan's own call then learns nothing
        visits += sum(1 for mid in self._scan_order if self.phase.get(mid) != DELIVER)
        scanning.append(self)
        try:
            count = try_actions(self, t, budget=budget)
        finally:
            scanning.pop()
        fired += count
        return count

    monkeypatch.setattr(Algorithm1Process, "try_actions", counted_scan)

    route = Algorithm1Process._route
    resolved = set()

    def counted_route(self, message):
        out = route(self, message)
        resolved.add((self.pid, message.dst))
        return out

    monkeypatch.setattr(Algorithm1Process, "_route", counted_route)

    intersection_log = ObjectSpace.intersection_log

    def counted_intersection_log(self, g, h):
        if scanning:
            key = (scanning[-1].pid, g.members)
            if key in resolved:
                lookups[key] = lookups.get(key, 0) + 1
        return intersection_log(self, g, h)

    monkeypatch.setattr(ObjectSpace, "intersection_log", counted_intersection_log)

    topology = paper_figure1_topology()
    groups = sorted(topology.groups, key=lambda g: g.name)
    sends = []
    for i in range(120):  # round-robin over groups and members, 2 a round
        members = sorted(groups[i % len(groups)].members)
        sends.append(
            Send(
                members[i % len(members)].index,
                groups[i % len(groups)].name,
                at_round=1 + i // 2,
            )
        )
    result = run_scenario(
        ScenarioSpec(
            topology=TopologySpec.capture(topology),
            sends=tuple(sends),
            seed=0,
            max_rounds=1000,
        )
    )
    assert result.delivered_everywhere()
    assert visits > 500 and fired > visits
    assert all(tries.values())
    assert sum(tries.values()) <= visits + fired
    assert len(resolved) >= len(groups)
    assert not lookups
