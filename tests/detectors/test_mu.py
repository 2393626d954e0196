"""Tests for the candidate detector mu (§3)."""

import pytest

from repro.detectors import BOTTOM, Mu, check_omega, check_sigma
from repro.groups import paper_figure1_topology, topology_from_indices
from repro.model import (
    DetectorError,
    by_indices,
    crash_pattern,
    failure_free,
    make_processes,
    pset,
)

PROCS = make_processes(5)
ALL = pset(PROCS)
P1, P2, P3, P4, P5 = PROCS


@pytest.fixture()
def fig1():
    return paper_figure1_topology()


def test_sigma_component_per_intersection(fig1):
    mu = Mu(failure_free(ALL), fig1)
    g1, g3 = fig1.group("g1"), fig1.group("g3")
    sigma = mu.sigma(g1, g3)
    assert sigma.scope == by_indices(1)
    assert sigma.query(P1, 0) == by_indices(1)


def test_sigma_of_group_itself(fig1):
    mu = Mu(failure_free(ALL), fig1)
    g3 = fig1.group("g3")
    assert mu.sigma(g3, g3).scope == g3.members


def test_sigma_for_disjoint_pair_raises(fig1):
    mu = Mu(failure_free(ALL), fig1)
    with pytest.raises(DetectorError):
        mu.sigma(fig1.group("g2"), fig1.group("g4"))


def test_sigma_of_group_scope(fig1):
    mu = Mu(crash_pattern(ALL, {P2: 4}), fig1)
    g1 = fig1.group("g1")
    sigma = mu.sigma_of(g1.members)
    assert sigma.scope == g1.members
    assert sigma.query(P1, 3) == g1.members
    assert sigma.query(P1, 4) == g1.members - {P2}


def test_sigma_of_intersection_scope(fig1):
    mu = Mu(failure_free(ALL), fig1)
    sigma = mu.sigma_of(by_indices(1))  # g1 ∩ g3
    assert sigma.scope == by_indices(1)
    assert sigma.query(P1, 0) == by_indices(1)


def test_sigma_of_unknown_scope_raises(fig1):
    mu = Mu(failure_free(ALL), fig1)
    with pytest.raises(DetectorError):
        mu.sigma_of(by_indices(1, 5))  # no group, no intersection


def test_sigma_is_sigma_of_the_intersection(fig1):
    mu = Mu(failure_free(ALL), fig1)
    for g, h in fig1.intersecting_pairs():
        assert mu.sigma(g, h) is mu.sigma_of(g.intersection(h))
    for g in fig1.groups:
        assert mu.sigma(g, g) is mu.sigma_of(g.members)


def test_omega_component_scoped_to_group(fig1):
    pattern = crash_pattern(ALL, {P1: 0})
    mu = Mu(pattern, fig1)
    g4 = fig1.group("g4")
    # p1 faulty: the eventual leader of g4 must be p4.
    assert mu.omega(g4).query(P4, 100) == P4


def test_gamma_partners_match_paper_example(fig1):
    pattern = crash_pattern(ALL, {P2: 10, P3: 10})
    mu = Mu(pattern, fig1)
    partners = mu.gamma_partners(50, fig1.group("g1"))
    assert {g.name for g in partners} == {"g3", "g4"}


def test_full_query_returns_named_samples(fig1):
    mu = Mu(failure_free(ALL), fig1)
    sample = mu.query(P1, 0)
    assert "gamma" in sample
    assert any(key.startswith("omega:") for key in sample)
    assert any(key.startswith("sigma:") for key in sample)
    # p1 is not in g2, so the omega:g2 sample is bottom at p1.
    assert sample["omega:g2"] is BOTTOM


def test_conjunction_view_components_validate(fig1):
    pattern = crash_pattern(ALL, {P2: 5})
    mu = Mu(pattern, fig1)
    conj = mu.as_conjunction()
    g1 = fig1.group("g1")
    omega_g1 = conj.component("omega:g1")
    history = []
    for t in range(0, 12, 2):
        for p in sorted(g1.members):
            history.append((p, t, omega_g1.query(p, t)))
    assert check_omega(history, pattern, g1.members) == []


def test_mu_on_disjoint_topology_has_no_cross_sigma():
    topo = topology_from_indices(4, {"a": [1, 2], "b": [3, 4]})
    procs = make_processes(4)
    mu = Mu(failure_free(pset(procs)), topo)
    sample = mu.query(procs[0], 0)
    sigma_keys = [k for k in sample if k.startswith("sigma:")]
    # Only the two per-group sigmas exist.
    assert len(sigma_keys) == 2
    assert sample["gamma"] == frozenset()
