"""Robustness: Algorithm 1 under detectors that misbehave for a prefix.

The failure-detector classes only constrain *eventual* behaviour: Omega
may elect doomed leaders for any finite prefix, gamma may be slow to
exclude (completeness is eventual), indicators may lag.  Algorithm 1 must
stay safe at all times and live once the detectors stabilize.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.detectors.mu import build_mu
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok, check_pairwise_ordering
from repro.workloads.runner import random_sends
from repro.workloads.topologies import chain_topology, ring_topology
from tests.core._detectors import late_omega_mu

PROCS5 = make_processes(5)
ALL5 = pset(PROCS5)


class TestOmegaInstability:
    def test_late_omega_stabilization_preserves_properties(self):
        pattern = crash_pattern(ALL5, {PROCS5[1]: 2})
        topo = paper_figure1_topology()
        system = MulticastSystem(
            topo, pattern, mu=late_omega_mu(pattern, topo, 40), seed=1
        )
        m = system.multicast(PROCS5[0], "g1")
        system.run(max_rounds=300)
        assert not system.record.undelivered(m)
        assert_run_ok(system.record)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stabilization=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_any_stabilization_time_is_safe(self, stabilization, seed):
        topo = ring_topology(4)
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[1]: 5})
        system = MulticastSystem(
            topo,
            pattern,
            mu=late_omega_mu(pattern, topo, stabilization),
            seed=seed,
        )
        amc = AtomicMulticast(system)
        for send in random_sends(topo, 5, seed=seed):
            sender = next(p for p in procs if p.index == send.sender)
            if system.is_alive(sender):
                amc.multicast(sender, send.group)
        amc.run(max_rounds=400)
        assert_run_ok(system.record)


class TestCombinedLags:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        gamma_lag=st.integers(min_value=0, max_value=30),
        indicator_lag=st.integers(min_value=0, max_value=30),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_strict_variant_with_lagging_detectors(
        self, gamma_lag, indicator_lag, seed
    ):
        pattern = crash_pattern(ALL5, {PROCS5[1]: 3})
        topo = paper_figure1_topology()
        system = MulticastSystem(
            topo,
            pattern,
            variant="strict",
            mu=build_mu(pattern, topo, gamma_lag),
            indicator_lag=indicator_lag,
            seed=seed,
        )
        m = system.multicast(PROCS5[0], "g1")
        system.run(max_rounds=400)
        assert not system.record.undelivered(m)
        assert_run_ok(system.record)


class TestPairwiseOrderingOnAcyclicTopologies:
    """§7: with F = ∅ the problem reduces to pairwise agreement, and the
    runs of Algorithm 1 satisfy the pairwise-ordering definition."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        k=st.integers(min_value=2, max_value=4),
    )
    def test_chain_runs_are_pairwise_ordered(self, seed, k):
        topo = chain_topology(k)
        procs = make_processes(k + 1)
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=seed)
        amc = AtomicMulticast(system)
        for send in random_sends(topo, 6, seed=seed):
            sender = next(p for p in procs if p.index == send.sender)
            amc.multicast(sender, send.group)
        amc.run(max_rounds=300)
        assert check_pairwise_ordering(system.record) == []
        assert_run_ok(system.record)
