"""Tests for the strict variation of §6.1 (real-time order)."""

import pytest

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.groups.topology import paper_figure1_topology
from repro.model.errors import SimulationError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok, check_strict_ordering
from repro.workloads.topologies import ring_topology

PROCS = make_processes(5)
ALL = pset(PROCS)
P1, P2, P3, P4, P5 = PROCS


def strict_system(pattern=None, seed=0, indicator_lag=0):
    return MulticastSystem(
        paper_figure1_topology(),
        pattern or failure_free(ALL),
        variant="strict",
        indicator_lag=indicator_lag,
        seed=seed,
    )


class TestStrictDelivery:
    def test_failure_free_delivery_works(self):
        system = strict_system()
        m = system.multicast(P1, "g1")
        system.run()
        assert system.everyone_delivered(m)
        assert_run_ok(system.record)
        assert check_strict_ordering(system.record) == []

    def test_sequential_messages_respect_real_time(self):
        system = strict_system(seed=2)
        amc = AtomicMulticast(system)
        first = amc.multicast(P1, "g1")
        system.run()
        # first fully delivered before second is multicast: ~> edge.
        second = amc.multicast(P3, "g3")
        system.run()
        assert check_strict_ordering(system.record) == []
        assert_run_ok(system.record)

    def test_strict_needs_indicators(self):
        from repro.core.algorithm1 import Algorithm1Process

        with pytest.raises(SimulationError):
            Algorithm1Process(
                P1,
                paper_figure1_topology(),
                None,
                None,
                on_deliver=lambda p, m: None,
                variant="strict",
                indicators=None,
            )

    def test_unknown_variant_rejected(self):
        with pytest.raises(SimulationError):
            MulticastSystem(
                paper_figure1_topology(), failure_free(ALL), variant="bogus"
            )


class TestStrictUnderCrashes:
    def test_indicator_unblocks_after_intersection_death(self):
        """The strict variant waits on every intersecting group; the
        indicator 1^{g∩h} is its only escape once g∩h died."""
        pattern = crash_pattern(ALL, {P2: 1})
        system = strict_system(pattern, seed=3)
        m = system.multicast(P1, "g1")
        system.run()
        assert system.everyone_delivered(m)
        assert_run_ok(system.record)
        assert check_strict_ordering(system.record) == []

    def test_indicator_lag_slows_but_preserves_liveness(self):
        pattern = crash_pattern(ALL, {P2: 1})
        fast = strict_system(pattern, seed=4)
        slow = strict_system(pattern, seed=4, indicator_lag=30)
        mf = fast.multicast(P1, "g1")
        ms = slow.multicast(P1, "g1")
        fast.run()
        slow.run(max_rounds=300)
        assert fast.everyone_delivered(mf)
        assert slow.everyone_delivered(ms)
        assert slow.time >= fast.time

    def test_strict_on_ring_with_crash(self):
        topo = ring_topology(4)
        procs = make_processes(4)
        pattern = crash_pattern(pset(procs), {procs[2]: 2})
        system = MulticastSystem(topo, pattern, variant="strict", seed=5)
        m = system.multicast(procs[0], "g1")
        system.run()
        assert system.everyone_delivered(m)
        assert check_strict_ordering(system.record) == []


class TestStrictVsVanillaBehaviour:
    def test_strict_waits_on_all_intersections_not_just_gamma(self):
        """On an acyclic (chain) topology gamma is empty, so the vanilla
        stable precondition is vacuous; strict still coordinates with
        every intersecting group, which costs extra stabilization
        records."""
        from repro.workloads.topologies import chain_topology

        topo = chain_topology(3)
        procs = make_processes(4)
        pattern = failure_free(pset(procs))

        vanilla = MulticastSystem(topo, pattern, seed=6)
        mv = vanilla.multicast(procs[1], "g2")
        vanilla.run()

        strict = MulticastSystem(topo, pattern, variant="strict", seed=6)
        ms = strict.multicast(procs[1], "g2")
        strict.run()

        assert vanilla.everyone_delivered(mv)
        assert strict.everyone_delivered(ms)
        # Strict produces at least as many stabilization records.
        v_recs = vanilla.space.group_log(topo.group("g2")).stabilization_records_for(mv.mid)
        s_recs = strict.space.group_log(topo.group("g2")).stabilization_records_for(ms.mid)
        assert len(s_recs) >= len(v_recs)
