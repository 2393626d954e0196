"""Each detector fault kind is one component, a history built once,
equal to the hooks it replaced.

``FaultInjector.perturb_mu`` hands both backends the components they
sample.  The bodies it retired live in ``_oracle``: the kernel's
``_NoisySampler`` around every group sampler, the engine's
``delay_omega`` floors (with ``gamma_delay`` folded into the gamma lag)
and its quorum-guard noise pin ``pinned_required``.  Over detector-mix
plans, crash and crash–recovery patterns, on Figure 1 and on disjoint
3×3, every answer and every stabilization time agree, at every time up
to two past the horizon.  The components are built once, and so are
their ``injector.stats`` counts: they equal what the retired hooks
counted when asked once per scope and time.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.detectors.mu import build_mu
from repro.faults.injector import injector_for
from repro.faults.nemesis import random_plan
from repro.faults.plan import FaultPlan
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import FailurePattern
from repro.substrates.consensus import OmegaSigmaSampler
from repro.workloads.topologies import disjoint_topology

from ._oracle import _NoisySampler, delay_omega, pinned_required

TOPOLOGIES = (paper_figure1_topology(), disjoint_topology(3, group_size=3))


@st.composite
def cases(draw, topologies=TOPOLOGIES):
    """``(topology, pattern, plan, gamma_lag, seed)``: a crash map with
    rejoin times for a random subset of the crashed, and the union of two
    ``detectors``-mix plans (so a kind may appear twice)."""
    topology = draw(st.sampled_from(topologies))
    processes = sorted(topology.processes)
    crashes = draw(st.dictionaries(st.sampled_from(processes), st.integers(0, 12)))
    gaps = draw(
        st.fixed_dictionaries({p: st.none() | st.integers(1, 6) for p in crashes})
    )
    rejoins = {p: crashes[p] + gap for p, gap in gaps.items() if gap is not None}
    pattern = FailurePattern(topology.processes, crashes, rejoins)
    groups = tuple(g.name for g in topology.groups)
    plans = [
        random_plan(draw(st.integers(0, 10**6)), "detectors", len(processes), groups)
        for _ in range(draw(st.integers(1, 2)))
    ]
    plan = FaultPlan(tuple(e for p in plans for e in p.events))
    return topology, pattern, plan, draw(st.integers(0, 3)), draw(st.integers(0, 99))


def count_noise(injector):
    """Give ``injector`` the ``sigma_noisy`` the retired hooks asked,
    which bumped ``sigma_noised`` on every True answer."""
    pure = injector.sigma_noisy

    def sigma_noisy(scope_indices, t):
        noisy = pure(scope_indices, t)
        injector.stats["sigma_noised"] += noisy
        return noisy

    injector.sigma_noisy = sigma_noisy


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_perturbed_components_answer_what_the_retired_hooks_did(case):
    topology, pattern, plan, gamma_lag, seed = case
    new, engine, kernel = (injector_for(plan, topology, seed) for _ in range(3))
    mu = new.perturb_mu(build_mu(pattern, topology, gamma_lag))
    built = dict(new.stats)
    count_noise(engine)

    # The engine's retired build: gamma lag plus the plan's, then floors.
    extra = sum(e.amount for e in plan.by_kind("gamma_delay"))
    retired = build_mu(pattern, topology, gamma_lag + extra)
    for event in plan.by_kind("omega_late"):
        delay_omega(retired, event.group, event.until)
    assert mu.gamma.detection_lag == retired.gamma.detection_lag
    assert max(o.stabilization_time for o in mu.omegas.values()) == max(
        o.stabilization_time for o in retired.omegas.values()
    )
    for g in topology.groups:
        assert mu.omega(g).stabilization_time == retired.omega(g).stabilization_time
        assert mu.omega(g).eventual_leader == retired.omega(g).eventual_leader

    # The kernel's retired modules: a wrapper around each plain sampler.
    wrapped = {
        g: _NoisySampler(OmegaSigmaSampler.of(pattern, g.members), kernel)
        for g in topology.groups
    }
    samplers = {
        g: OmegaSigmaSampler(mu.omega(g), mu.sigma_of(g.members))
        for g in topology.groups
    }

    horizon = max(new.horizon, max(pattern.change_instants(), default=0)) + 2
    processes = sorted(topology.processes)
    for t in range(horizon + 1):
        for scope, sigma in mu.sigmas.items():
            # Counted once per (scope, t): the first ask counts.
            asked = pinned_required(retired, engine, processes[0], scope, t)
            for p in processes:
                assert sigma.query(p, t) == asked
        for g in topology.groups:
            members = sorted(g.members)
            asked = wrapped[g].query(members[0], t)
            for p in members:
                assert samplers[g].query(p, t) == asked
            assert mu.gamma_partners(t, g) == retired.gamma_partners(t, g)
    assert new.stats == built
    assert built["sigma_noised"] == engine.stats["sigma_noised"]
    assert built["omega_rotated"] == kernel.stats["omega_rotated"]
