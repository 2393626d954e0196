"""Every pattern oracle is a timeline equal to the lazy-epoch body it
replaced.

``SigmaOracle``, ``OmegaOracle``, ``IndicatorOracle``, the merged
``OmegaSigmaSampler``, ``GammaOracle`` and ``Mu.gamma_partners`` compute
each epoch's value once, when they are built; the bodies in ``_oracle``
computed it at the first time they were asked inside the epoch.  On
Figure 1, ring5 and hub4 under ``random_plan`` ``full`` / ``recovery``
patterns (seeds 0–9, over a seeded crash-stop base), and on the recovery
overlay of ``test_oracles.py``, at every process and every time up to two
past the last instant:

* each component answers what its retired body answers, asked in time
  order as a run asks;
* ``instants``, ``stabilization_time`` and ``eventual_leader`` are equal;
* the retired answer, computed afresh at each time, is constant on every
  interval the new ``instants`` cut — what the kernel's parking memo
  assumes when it keeps a proof until the next instant.
"""

from bisect import bisect_right
from functools import partial

import pytest

from repro.detectors.indicator import IndicatorOracle
from repro.detectors.leader import OmegaOracle
from repro.detectors.mu import build_mu
from repro.detectors.quorum import SigmaOracle
from repro.faults.injector import injector_for
from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import crash_pattern
from repro.substrates.consensus import OmegaSigmaSampler
from repro.workloads.topologies import hub_topology, ring_topology

from . import _oracle as retired
from .test_oracles import TestRecoveryOverlay as Overlay

TOPOLOGIES = {
    "figure1": paper_figure1_topology(),
    "ring5": ring_topology(5),
    "hub4": hub_topology(4),
}

#: The memo attributes of the retired bodies.
MEMOS = ("_samples", "_group_samples", "_cache", "_partner_cache")


class Partners:
    """``gamma(g)`` asked through a ``gamma_partners(t, g)`` callable."""

    def __init__(self, gamma_partners, g):
        self.gamma_partners = gamma_partners
        self.g = g

    def query(self, p, t):
        return self.gamma_partners(t, self.g)


def forget(body):
    """Clear every memo of a retired body (and of the bodies it holds),
    so its next answer is computed at the time asked."""
    for name, value in vars(body).items():
        if name in MEMOS:
            value.clear()
        elif type(value).__module__ in (retired.__name__, __name__):
            forget(value)


def components(pattern, topology, lag):
    """``(name, new, make_retired, cuts)`` per component of the run's
    ``mu`` and per group sampler and intersection indicator: ``cuts``
    are the instants the new answer changes at."""
    mu = build_mu(pattern, topology, lag)
    trusted = mu.gamma.trusted.instants
    make = partial(retired.GammaOracle, pattern, topology, lag)
    found = [("gamma", mu.gamma, make, trusted)]
    for scope, sigma in mu.sigmas.items():
        make = partial(retired.SigmaOracle, pattern.restricted_to(scope), scope)
        found.append((f"sigma {sorted(scope)}", sigma, make, sigma.instants))
    for g, omega in mu.omegas.items():
        make = partial(
            retired.OmegaOracle, pattern.restricted_to(g.members), g.members
        )
        found.append((f"omega {g.name}", omega, make, omega.instants))
        sampler = OmegaSigmaSampler.of(pattern, g.members)
        make = partial(retired.OmegaSigmaSampler.of, pattern, g.members)
        found.append((f"sampler {g.name}", sampler, make, sampler.instants))

        def old_partners(g=g):
            gamma = retired.GammaOracle(pattern, topology, lag)
            return Partners(retired.GammaPartners(gamma), g)

        new = Partners(mu.gamma_partners, g)
        found.append((f"gamma({g.name})", new, old_partners, trusted))
    for g, h in topology.intersecting_pairs():
        shared = g.intersection(h)
        indicator = IndicatorOracle(pattern, shared, lag)
        make = partial(retired.IndicatorOracle, pattern, shared, lag)
        found.append((f"1 {g.name}∩{h.name}", indicator, make, indicator.instants))
    return found


def check(found, processes):
    """Run the three checks of the module docstring over ``found``."""
    horizon = max(t for *_, cuts in found for t in [0, *cuts]) + 2
    for name, new, make, cuts in found:
        old, fresh = make(), make()
        if isinstance(old, retired.GammaOracle):
            assert cuts == old._exclusion_instants
        elif getattr(old, "instants", None) is not None:
            assert new.instants == old.instants, name
        for attribute in ("stabilization_time", "eventual_leader"):
            assert getattr(new, attribute, 0) == getattr(old, attribute, 0), name
        for t in range(horizon + 1):
            start = [0, *cuts][bisect_right(cuts, t)]
            for p in processes:
                assert new.query(p, t) == old.query(p, t), (name, p, t)
                forget(fresh)
                at_t = fresh.query(p, t)
                forget(fresh)
                assert at_t == fresh.query(p, start), (name, p, t, start)


def planned(label, mix, seed):
    """The pattern ``random_plan(seed, mix)`` draws over a crash-stop base
    with one or two seeded crashes."""
    topology = TOPOLOGIES[label]
    processes = sorted(topology.processes)
    n = len(processes)
    base = {processes[seed % n]: seed}
    if seed % 2:
        base[processes[(seed + 2) % n]] = seed + 3
    plan = random_plan(seed, mix, n, tuple(g.name for g in topology.groups))
    injector = injector_for(plan, topology, seed)
    pattern = injector.perturb_pattern(crash_pattern(topology.processes, base))
    lag = seed % 3 + sum(e.amount for e in plan.by_kind("gamma_delay"))
    return topology, pattern, lag


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mix", ("full", "recovery"))
@pytest.mark.parametrize("label", sorted(TOPOLOGIES))
def test_timelines_answer_what_the_lazy_bodies_did(label, mix, seed):
    topology, pattern, lag = planned(label, mix, seed)
    check(components(pattern, topology, lag), sorted(topology.processes))


def test_the_recovery_overlay_answers_what_the_lazy_bodies_did():
    """``TestRecoveryOverlay.PATTERN`` on Figure 1, plus the Sigma and
    Omega over its own scope that pin ``instants == [2, 4, 8]``."""
    pattern, scope = Overlay.PATTERN, Overlay.SCOPE
    topology = TOPOLOGIES["figure1"]
    found = components(pattern, topology, 1)
    for source in (pattern, pattern.restricted_to(scope)):
        sigma = SigmaOracle(source, scope)
        make = partial(retired.SigmaOracle, source, scope)
        found.append(("sigma scope", sigma, make, sigma.instants))
        omega = OmegaOracle(source, scope, stabilization_time=8)
        make = partial(retired.OmegaOracle, source, scope, stabilization_time=8)
        found.append(("omega scope", omega, make, omega.instants))
        assert sigma.instants == omega.instants == [2, 4, 8]
    check(found, sorted(topology.processes))
