"""The settle horizon is derived from the run's instants.

``Scheduler`` trusts quiescence from one past the last scan instant and
the fault plan's horizon.  The engine used to hand it a formula instead
(:func:`tests.core._oracle.retired_settle_horizon`), which also padded
the last alive-set change with the ``gamma`` and indicator lags.  Over
drawn crash and crash–recovery patterns, ``detectors`` / ``full`` /
``recovery`` plans and hand-built ``mu`` components, the padding carries
no detector change: every answer a process can read is the same at every
time from the derived horizon's eve through the retired one.

The async supervisor used to force wakes at every crash and rejoin
instant as well as through its settle window.  Every such instant is at
most the last scan instant (each ``Omega_g`` stabilizes no earlier than
its members' last change), so the window covers them: the second check.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import MulticastSystem
from repro.detectors.mu import Mu, build_mu
from repro.faults.injector import NoisySigma, injector_for
from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import FailurePattern
from repro.workloads import runner
from repro.workloads.topologies import disjoint_topology
from tests.core._detectors import late_omega_mu
from tests.core._oracle import retired_settle_horizon
from tests.runtime._scenarios import ROW_SPECS

TOPOLOGIES = (paper_figure1_topology(), disjoint_topology(3, group_size=3))


@st.composite
def systems(draw):
    """``(system, indicator_lag)``: an engine over a drawn pattern (crash
    map, rejoins for a subset of the crashed), an optional plan of the
    ``detectors``, ``full`` or ``recovery`` mix, drawn lags and variant,
    and optionally a hand-built ``Omega`` or ``Sigma`` component."""
    topology = draw(st.sampled_from(TOPOLOGIES))
    processes = sorted(topology.processes)
    crashes = draw(st.dictionaries(st.sampled_from(processes), st.integers(0, 12)))
    gaps = draw(
        st.fixed_dictionaries({p: st.none() | st.integers(1, 6) for p in crashes})
    )
    rejoins = {p: crashes[p] + gap for p, gap in gaps.items() if gap is not None}
    pattern = FailurePattern(topology.processes, crashes, rejoins)
    mix = draw(st.sampled_from((None, "detectors", "full", "recovery")))
    injector = None
    if mix is not None:
        groups = tuple(g.name for g in topology.groups)
        plan = random_plan(draw(st.integers(0, 10**6)), mix, len(processes), groups)
        injector = injector_for(plan, topology, draw(st.integers(0, 99)))
        pattern = injector.perturb_pattern(pattern)
    hand = draw(st.sampled_from((None, "omega", "sigma")))
    if hand == "omega":
        mu = late_omega_mu(pattern, topology, draw(st.integers(0, 20)))
    else:
        mu = build_mu(pattern, topology, draw(st.integers(0, 3)))
    if hand == "sigma":
        g = draw(st.sampled_from(topology.groups))
        start = draw(st.integers(1, 15))
        until = start + draw(st.integers(1, 6))
        sigmas = dict(mu.sigmas)
        sigmas[g.members] = NoisySigma(
            mu.sigmas[g.members], (start, until), lambda t: start <= t < until
        )
        mu = Mu(topology, sigmas, mu.omegas, mu.gamma)
    if injector is not None:
        mu = injector.perturb_mu(mu)
    indicator_lag = draw(st.integers(0, 3))
    system = MulticastSystem(
        topology,
        pattern,
        variant=draw(st.sampled_from(("vanilla", "strict"))),
        mu=mu,
        indicator_lag=indicator_lag,
        injector=injector,
    )
    return system, indicator_lag


def answers(system, t):
    """Every detector answer a process of ``system`` can read at ``t``:
    ``mu``'s conjunction at each process (each ``Sigma``, ``Omega_g`` and
    its ``gamma`` sample), each ``gamma(g)`` and each indicator."""
    mu = system.mu
    return (
        [mu.query(p, t) for p in sorted(system.topology.processes)],
        [mu.gamma_timeline(g).query(None, t) for g in system.topology.groups],
        [oracle.query(None, t) for oracle in system.indicators.values()],
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(systems())
def test_the_padding_carries_no_detector_change(case):
    system, indicator_lag = case
    derived = system.settle_horizon()
    retired = retired_settle_horizon(system, indicator_lag)
    assert derived <= retired
    settled = answers(system, derived - 1)
    for t in range(derived, retired + 1):
        assert answers(system, t) == settled, (t, derived, retired)
    # Every crash and rejoin is at or before the last scan instant, so
    # inside the async supervisor's forced-wake window.
    changes = system.pattern.change_instants()
    assert not changes or changes[-1] <= system.scan_instants[-1]


def test_figure1_async_chaos_sheds_dead_padding():
    """The row whose horizon moved: the retired formula padded the last
    rejoin (13) with the plan's gamma lag (3), but its ``gamma(g)``
    instants are ``[7]``, so nothing a process reads changes past 14."""
    spec = ROW_SPECS["figure1-async-chaos"]
    topology = spec.build_topology()
    injector = injector_for(spec.faults, topology, seed=spec.seed)
    pattern = injector.perturb_pattern(spec.build_pattern())
    system = runner._algorithm1_deployment(spec, topology, pattern, injector).host
    assert max(pattern.change_instants()) == 13
    assert system.mu.gamma.detection_lag == 3
    assert {t for g in topology.groups for t in system.mu.gamma_timeline(g).instants} == {7}
    assert retired_settle_horizon(system) == 17
    assert system.settle_horizon() == 15
