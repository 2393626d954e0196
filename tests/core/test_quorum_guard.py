"""The engine's quorum guard is a query of ``mu``'s ``Sigma_scope``.

``MulticastSystem.quorum_ok`` completes an operation when the
``Sigma_scope`` sample lies within the responders.  It used to compute
that sample from the failure pattern by hand, and the copy drifted from
the oracle under the crash–recovery overlay: it dropped a
temporarily-down *recovering* member, so one operation could complete on
``{p2}`` and a later one on ``{p1}`` — disjoint quorums, not a ``Sigma``
history.  Three things are pinned here:

* the Figure 1 witness of that drift, answer by answer;
* on whole engine and async runs under ``recovery`` plans, the guard
  asks the oracle about every scope it gates, and what the oracle
  answered passes ``check_sigma``'s Intersection clause;
* the retired formula (``_oracle.handrolled_required``) against the
  oracle: equal on crash-stop patterns, and different under recoveries
  exactly when a recovering member of the scope is down.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import MulticastSystem
from repro.detectors.mu import build_mu
from repro.detectors.quorum import SigmaOracle
from repro.detectors.validation import check_sigma
from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import FailurePattern
from repro.workloads.runner import random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import (
    chain_topology,
    disjoint_topology,
    hub_topology,
    ring_topology,
)

from ._oracle import handrolled_required

# -- (a) The Figure 1 witness ---------------------------------------------


def figure1_witness():
    """``g1 = {p1, p2}``; p1 is down on ``[2, 5)``, p2 crashes at 6."""
    topology = paper_figure1_topology()
    p1, p2, p3, *_ = sorted(topology.processes)
    pattern = FailurePattern(topology.processes, {p1: 2, p2: 6}, {p1: 5})
    return topology, pattern, (p1, p2, p3)


def test_guard_waits_for_a_down_but_recovering_member():
    topology, pattern, (p1, p2, p3) = figure1_witness()
    g1 = topology.group("g1").members
    system = MulticastSystem(topology, pattern, seed=0)
    answers = {}
    while system.time < 8:
        system.tick()
        answers[system.time] = system.quorum_ok(p3, g1)
    assert answers == {
        1: True,
        # p1 is down and will rejoin: it stays in the sample, so the
        # operation stalls rather than complete on {p2} alone.
        2: False,
        3: False,
        4: False,
        5: True,  # the rejoin
        6: True,  # p2 is gone for good: {p1}
        7: True,
        8: True,
    }


def test_witness_samples_intersect_where_the_retired_formula_s_do_not():
    topology, pattern, (p1, p2, p3) = figure1_witness()
    g1 = topology.group("g1").members
    sigma = build_mu(pattern, topology).sigma_of(g1)
    asked = [(p, t) for t in range(9) for p in (p1, p2) if pattern.is_alive(p, t)]
    assert check_sigma([(p, t, sigma.query(p, t)) for p, t in asked], pattern, g1) == []
    retired = check_sigma(
        [(p, t, handrolled_required(pattern, g1, t)) for p, t in asked], pattern, g1
    )
    assert "Intersection violated: p2@2 -> [p2] vs p1@6 -> [p1]" in retired


# -- (b) Whole runs ---------------------------------------------------------

TOPOLOGIES = {
    "figure1": paper_figure1_topology,
    "ring5": lambda: ring_topology(5),
    "disjoint3x3": lambda: disjoint_topology(3, 3),
}

BACKENDS = {
    "engine": {},
    "async": {"backend": "async", "delay_model": ("uniform", 0.1, 0.9)},
}

#: ``random_plan(k, "recovery", ...)`` holds a ``crash_recover`` event
#: for each of these on all three topologies.
PLAN_SEEDS = (1, 3, 4, 7)


@pytest.fixture
def sigma_audit(monkeypatch):
    """What the guard was asked and what the ``Sigma`` oracles answered:
    ``(gated, histories)`` — the scopes passed to ``quorum_ok``, and per
    oracle scope the ``(p, t, sample)`` triples of its queries."""
    gated, histories = set(), {}
    quorum_ok, query = MulticastSystem.quorum_ok, SigmaOracle.query

    def recording_quorum_ok(self, caller, scope):
        gated.add(scope)
        return quorum_ok(self, caller, scope)

    def recording_query(self, p, t):
        sample = query(self, p, t)
        histories.setdefault(self.scope, []).append((p, t, sample))
        return sample

    monkeypatch.setattr(MulticastSystem, "quorum_ok", recording_quorum_ok)
    monkeypatch.setattr(SigmaOracle, "query", recording_query)
    return gated, histories


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_runs_under_recovery_plans_gate_on_a_sigma_history(
    sigma_audit, topology_name, backend
):
    gated, histories = sigma_audit
    topology = TOPOLOGIES[topology_name]()
    captured = TopologySpec.capture(topology)
    for k in PLAN_SEEDS:
        gated.clear()
        histories.clear()
        plan = random_plan(
            k,
            "recovery",
            process_count=captured.process_count,
            groups=tuple(name for name, _ in captured.groups),
        )
        spec = ScenarioSpec(
            topology=captured,
            sends=tuple(random_sends(topology, 12, seed=k, spread_rounds=1)),
            seed=k,
            max_rounds=400,
            faults=plan,
            **BACKENDS[backend],
        )
        result = run_scenario(spec)
        pattern = result.host.pattern  # perturbed by the plan
        assert pattern.recovery_times, "the plan drew no crash_recover"
        assert gated
        for scope in gated:
            history = histories.get(scope)
            assert history, f"guard never asked Sigma about {sorted(scope)}"
            lines = check_sigma(history, pattern, scope)
            # The Liveness line judges the last sample, and a run may
            # quiesce before a late crash; only Intersection is asserted.
            assert not [x for x in lines if x.startswith("Intersection violated")]


# -- Crash-stop equivalence with the retired formula ------------------------

DIFFERENTIAL_TOPOLOGIES = (
    paper_figure1_topology(),
    ring_topology(4),
    chain_topology(3),
    hub_topology(4),
)


def sigma_scopes(topology):
    """Every member set ``mu`` holds a ``Sigma`` for: groups and the
    intersections of intersecting pairs."""
    scopes = {g.members for g in topology.groups}
    scopes.update(g.intersection(h) for g, h in topology.intersecting_pairs())
    return sorted(scopes, key=sorted)


@st.composite
def cases(draw, recoveries):
    """``(topology, pattern, caller)``: a random crash map over one of
    the differential topologies — with rejoin times for a random subset
    of the crashed when ``recoveries`` is set — and who asks."""
    topology = draw(st.sampled_from(DIFFERENTIAL_TOPOLOGIES))
    processes = sorted(topology.processes)
    crashes = draw(st.dictionaries(st.sampled_from(processes), st.integers(0, 12)))
    rejoins = {}
    if recoveries:
        gaps = draw(
            st.fixed_dictionaries({p: st.none() | st.integers(1, 6) for p in crashes})
        )
        rejoins = {p: crashes[p] + gap for p, gap in gaps.items() if gap is not None}
    pattern = FailurePattern(topology.processes, crashes, rejoins)
    return topology, pattern, draw(st.sampled_from(processes))


@settings(max_examples=200, deadline=None)
@given(cases(recoveries=False), st.integers(0, 20))
def test_oracle_equals_the_retired_formula_on_crash_stop_patterns(case, t):
    topology, pattern, caller = case
    mu = build_mu(pattern, topology)
    for scope in sigma_scopes(topology):
        assert mu.sigma_of(scope).query(caller, t) == handrolled_required(
            pattern, scope, t
        )


@settings(max_examples=200, deadline=None)
@given(cases(recoveries=True), st.integers(0, 20))
def test_oracle_differs_exactly_on_a_down_recovering_member(case, t):
    topology, pattern, caller = case
    mu = build_mu(pattern, topology)
    for scope in sigma_scopes(topology):
        recovering_and_down = {
            q
            for q in scope
            if q in pattern.recovery_times and not pattern.is_alive(q, t)
        }
        sample = mu.sigma_of(scope).query(caller, t)
        retired = handrolled_required(pattern, scope, t)
        assert sample - retired == recovering_and_down
        assert retired <= sample
