"""Tests for the round engine mechanics."""

import pytest

from repro.core.engine import MulticastSystem
from repro.detectors.mu import build_mu
from repro.groups.topology import paper_figure1_topology
from repro.model.errors import SimulationError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset
from repro.workloads.topologies import chain_topology

PROCS = make_processes(5)
ALL = pset(PROCS)


class TestConstruction:
    def test_pattern_topology_mismatch_rejected(self):
        topo = paper_figure1_topology()
        wrong = failure_free(pset(make_processes(3)))
        with pytest.raises(SimulationError):
            MulticastSystem(topo, wrong)

    def test_strict_variant_builds_indicators(self):
        system = MulticastSystem(
            paper_figure1_topology(), failure_free(ALL), variant="strict"
        )
        assert len(system.indicators) == len(
            set(
                g.intersection(h)
                for g, h in paper_figure1_topology().intersecting_pairs()
            )
        )

    def test_vanilla_variant_has_no_indicators(self):
        system = MulticastSystem(paper_figure1_topology(), failure_free(ALL))
        assert system.indicators == {}


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            system = MulticastSystem(
                paper_figure1_topology(), failure_free(ALL), seed=seed
            )
            system.multicast(PROCS[0], "g1")
            system.multicast(PROCS[2], "g3")
            system.run()
            return [
                (e.time, e.process, e.message.mid)
                for e in system.record.deliveries
            ]

        assert run(42) == run(42)

    def test_different_seeds_may_interleave_differently(self):
        # Not an invariant, but the seeds must at least both be correct.
        for seed in (1, 2):
            system = MulticastSystem(
                paper_figure1_topology(), failure_free(ALL), seed=seed
            )
            m = system.multicast(PROCS[0], "g3")
            system.run()
            assert not system.record.undelivered(m)


class TestClockAndCrash:
    def test_time_advances_per_tick(self):
        system = MulticastSystem(paper_figure1_topology(), failure_free(ALL))
        assert system.time == 0
        system.tick()
        system.tick()
        assert system.time == 2

    def test_crashed_processes_stop_acting(self):
        pattern = crash_pattern(ALL, {PROCS[0]: 1})
        system = MulticastSystem(paper_figure1_topology(), pattern)
        system.multicast(PROCS[0], "g1")  # at t=0, still alive
        system.run()
        # No step of p1 recorded after its crash time.
        for time, processes, _received in system.record.charges:
            if PROCS[0] in processes:
                assert time <= 1

    def test_settle_horizon_covers_lags(self):
        pattern = crash_pattern(ALL, {PROCS[1]: 7})
        topo = paper_figure1_topology()
        system = MulticastSystem(topo, pattern, mu=build_mu(pattern, topo, 5))
        # The lagged gamma change is a scan instant; the horizon is past it.
        assert 7 + 5 in system.scan_instants
        assert system.settle_horizon() > system.scan_instants[-1]

    def test_is_alive_tracks_pattern(self):
        pattern = crash_pattern(ALL, {PROCS[2]: 2})
        system = MulticastSystem(paper_figure1_topology(), pattern)
        assert system.is_alive(PROCS[2])
        system.tick()
        system.tick()
        assert not system.is_alive(PROCS[2])


class TestComponents:
    def test_components_run_before_the_algorithm(self):
        system = MulticastSystem(paper_figure1_topology(), failure_free(ALL))
        calls = []

        def component(pid, t):
            calls.append((pid, t))
            return 0

        system.add_component(component)
        system.tick()
        assert len(calls) == 5  # one call per alive process

    def test_component_fires_count_into_quiescence(self):
        system = MulticastSystem(paper_figure1_topology(), failure_free(ALL))
        budget = {"left": 3}

        def component(pid, t):
            if budget["left"] > 0:
                budget["left"] -= 1
                return 1
            return 0

        system.add_component(component)
        rounds = system.run(max_rounds=50)
        assert budget["left"] == 0


class TestActionBudget:
    def test_budget_one_fires_at_most_one_action_per_process(self):
        system = MulticastSystem(chain_topology(2), failure_free(pset(make_processes(3))))
        system.multicast(make_processes(3)[0], "g1")
        fired = system.tick(action_budget=1)
        assert fired <= 3  # one per alive process at most

    def test_budget_none_equals_full_scan(self):
        procs = make_processes(3)
        a = MulticastSystem(chain_topology(2), failure_free(pset(procs)), seed=3)
        b = MulticastSystem(chain_topology(2), failure_free(pset(procs)), seed=3)
        ma = a.multicast(procs[0], "g1")
        mb = b.multicast(procs[0], "g1")
        a.run()
        rounds = 0
        while b.record.undelivered(mb) and rounds < 200:
            b.tick(action_budget=1)
            rounds += 1
        assert not a.record.undelivered(ma)
        assert not b.record.undelivered(mb)
        # Fine-grained interleaving takes at least as many rounds.
        assert rounds >= 1
