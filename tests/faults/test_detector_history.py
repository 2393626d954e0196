"""A perturbed ``mu`` is data: ``FaultInjector.perturb_mu`` builds each
component once, as a history.

Asking it anything afterwards changes nothing: ``injector.stats`` holds
what the build counted, and every component answers the same at every
process of its scope.  And ``omega_late`` has one covering rule: the
rotation window and the stabilization floor come from the same events,
so from ``stabilization_time`` on a perturbed ``Omega_g`` answers its
eventual leader — also for a group nested inside the event's group.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.detectors.mu import build_mu
from repro.faults.injector import injector_for
from repro.faults.plan import FaultEvent, FaultPlan
from repro.model.failures import FailurePattern, failure_free
from repro.workloads.topologies import random_topology

from .test_detector_components import TOPOLOGIES, cases

#: ``g1 = {p1, p2}`` lies inside ``g4 = {p1, p2, p5, p6}``.
NESTED = random_topology(2)
CASES = cases(TOPOLOGIES + (NESTED,))
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def perturbed(case):
    topology, pattern, plan, gamma_lag, seed = case
    injector = injector_for(plan, topology, seed)
    mu = injector.perturb_mu(build_mu(pattern, topology, gamma_lag))
    horizon = max(injector.horizon, max(pattern.change_instants(), default=0)) + 2
    return injector, mu, horizon


def assert_leader_from_stabilization(mu, horizon):
    for g, omega in mu.omegas.items():
        if omega.eventual_leader is None:
            continue  # all of g is faulty: Leadership is vacuous
        for t in range(omega.stabilization_time, horizon + 1):
            assert omega.query(None, t) == omega.eventual_leader, (g.name, t)


@SETTINGS
@given(CASES)
def test_a_perturbed_mu_is_pure_data(case):
    injector, mu, horizon = perturbed(case)
    built = dict(injector.stats)
    processes = sorted(mu.topology.processes)
    for t in range(horizon + 1):
        for p in processes:
            mu.query(p, t)
        for scope, sigma in mu.sigmas.items():
            assert len({sigma.query(p, t) for p in scope}) == 1, (sorted(scope), t)
        for g, omega in mu.omegas.items():
            assert len({omega.query(p, t) for p in g.members}) == 1, (g.name, t)
            mu.gamma_partners(t, g)
    assert injector.stats == built


@SETTINGS
@given(CASES)
def test_omega_answers_its_eventual_leader_from_stabilization(case):
    _, mu, horizon = perturbed(case)
    assert_leader_from_stabilization(mu, horizon)


@pytest.mark.parametrize(
    "pattern",
    [
        failure_free(NESTED.processes),
        FailurePattern(NESTED.processes, {min(NESTED.processes): 3}),
    ],
    ids=["failure-free", "p1-crashes"],
)
def test_omega_late_on_a_group_covers_the_groups_inside_it(pattern):
    plan = FaultPlan((FaultEvent(kind="omega_late", group="g4", until=9),))
    injector = injector_for(plan, NESTED)
    mu = injector.perturb_mu(build_mu(pattern, NESTED))
    g1, g4 = NESTED.group("g1"), NESTED.group("g4")
    assert g1.members < g4.members
    assert_leader_from_stabilization(mu, 12)
    assert mu.omega(g1).stabilization_time == mu.omega(g4).stabilization_time == 9
