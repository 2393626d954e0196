"""Tests for topology generators and the scenario runner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import crash_pattern, failure_free, make_processes, pset
from repro.props import assert_run_ok
from repro.workloads import (
    ScenarioSpec,
    Send,
    chain_topology,
    disjoint_topology,
    hub_topology,
    random_sends,
    random_topology,
    ring_topology,
    run_scenario,
)


class TestGenerators:
    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            ring_topology(2)

    def test_ring_structure(self):
        topo = ring_topology(5)
        assert len(topo.groups) == 5
        assert len(topo.processes) == 5
        assert len(topo.intersecting_pairs()) == 5

    def test_chain_structure(self):
        topo = chain_topology(4, group_size=3)
        assert len(topo.groups) == 4
        # Consecutive groups share exactly group_size - 1 ... no: stride
        # construction shares one process between neighbours.
        pairs = topo.intersecting_pairs()
        assert len(pairs) == 3
        assert topo.cyclic_families() == ()

    def test_chain_minimum(self):
        with pytest.raises(ValueError):
            chain_topology(1)

    def test_disjoint_structure(self):
        topo = disjoint_topology(4, group_size=3)
        assert len(topo.processes) == 12
        assert topo.intersecting_pairs() == ()

    def test_disjoint_minimum(self):
        with pytest.raises(ValueError):
            disjoint_topology(0)

    def test_hub_shares_p1(self):
        topo = hub_topology(4)
        p1 = sorted(topo.processes)[0]
        for group in topo.groups:
            assert p1 in group

    def test_hub_minimum(self):
        with pytest.raises(ValueError):
            hub_topology(1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_random_topology_is_well_formed(self, seed):
        topo = random_topology(seed)
        assert 1 <= len(topo.groups) <= 4
        for group in topo.groups:
            assert group.members <= topo.processes


class TestSendScripts:
    def test_random_sends_respect_closed_model(self):
        topo = ring_topology(4)
        for send in random_sends(topo, 20, seed=3):
            group = topo.group(send.group)
            assert any(p.index == send.sender for p in group.members)

    def test_random_sends_are_seeded(self):
        topo = ring_topology(4)
        assert random_sends(topo, 10, seed=5) == random_sends(topo, 10, seed=5)


class TestScenarioRunner:
    def test_sends_at_later_rounds_are_issued(self):
        topo = chain_topology(2)
        procs = make_processes(3)
        result = run_scenario(
            ScenarioSpec.capture(
                topo,
                failure_free(pset(procs)),
                [Send(1, "g1", 0), Send(3, "g2", 4)],
                seed=1,
            )
        )
        assert len(result.messages) == 2
        assert result.delivered_everywhere()
        assert_run_ok(result.record)

    def test_crashed_senders_are_skipped(self):
        topo = chain_topology(2)
        procs = make_processes(3)
        pattern = crash_pattern(pset(procs), {procs[0]: 1})
        result = run_scenario(
            ScenarioSpec.capture(topo, pattern, [Send(1, "g1", 5)], seed=2)
        )
        assert result.skipped_sends
        assert result.messages == []

    def test_unknown_sender_index_rejected(self):
        topo = chain_topology(2)
        procs = make_processes(3)
        with pytest.raises(ValueError):
            run_scenario(
                ScenarioSpec.capture(
                    topo,
                    failure_free(pset(procs)),
                    [Send(9, "g1", 0)],
                )
            )

    def test_empty_script_is_fine(self):
        topo = chain_topology(2)
        procs = make_processes(3)
        result = run_scenario(
            ScenarioSpec.capture(topo, failure_free(pset(procs)), [], seed=3)
        )
        assert result.messages == []
        assert_run_ok(result.record)
