"""Tests for state-machine replication over strict multicast (§6.1)."""

import pytest

from repro.core.engine import MulticastSystem
from repro.core.smr import ReplicatedStateMachine, kv_apply
from repro.groups.topology import paper_figure1_topology, topology_from_indices
from repro.model.errors import SimulationError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import check_strict_ordering

PROCS = make_processes(5)
ALL = pset(PROCS)


def strict_system(pattern=None, seed=0):
    return MulticastSystem(
        paper_figure1_topology(),
        pattern or failure_free(ALL),
        variant="strict",
        seed=seed,
    )


class TestKvMachine:
    def test_put_get_incr(self):
        state, out = kv_apply({}, ("put", "x", 3))
        assert out == 3
        state, out = kv_apply(state, ("incr", "x"))
        assert (state["x"], out) == (4, 4)
        _, out = kv_apply(state, ("get", "x"))
        assert out == 4

    def test_apply_is_pure(self):
        original = {"x": 1}
        kv_apply(original, ("put", "x", 9))
        assert original == {"x": 1}

    def test_unknown_command_rejected(self):
        with pytest.raises(SimulationError):
            kv_apply({}, ("frobnicate",))


class TestReplication:
    def test_requires_strict_variant(self):
        vanilla = MulticastSystem(
            paper_figure1_topology(), failure_free(ALL)
        )
        with pytest.raises(SimulationError):
            ReplicatedStateMachine(vanilla)

    def test_replicas_of_a_group_converge(self):
        smr = ReplicatedStateMachine(strict_system(seed=1))
        smr.submit(PROCS[0], "g1", ("put", "x", 10))
        smr.submit(PROCS[1], "g1", ("incr", "x"))
        smr.run()
        assert smr.state_at(PROCS[0]) == smr.state_at(PROCS[1])
        assert smr.read(PROCS[0], "x") == 11

    def test_outputs_are_computed_per_command(self):
        smr = ReplicatedStateMachine(strict_system(seed=2))
        cmd = smr.submit(PROCS[0], "g1", ("put", "k", "v"))
        smr.run()
        assert smr.output_of(PROCS[1], cmd) == "v"

    def test_sequential_commands_linearize(self):
        """A command submitted after another completed must be ordered
        after it everywhere — the strict transport guarantees it."""
        smr = ReplicatedStateMachine(strict_system(seed=3))
        smr.submit(PROCS[0], "g3", ("put", "x", 1))
        smr.run()
        smr.submit(PROCS[3], "g3", ("put", "x", 2))
        smr.run()
        assert check_strict_ordering(smr.system.record) == []
        for p in (PROCS[0], PROCS[2], PROCS[3]):
            assert smr.read(p, "x") == 2

    def test_cross_group_commands_interleave_consistently(self):
        smr = ReplicatedStateMachine(strict_system(seed=4))
        smr.submit(PROCS[0], "g1", ("incr", "c"))
        smr.submit(PROCS[2], "g3", ("incr", "c"))
        smr.submit(PROCS[0], "g1", ("incr", "c"))
        smr.run()
        # p1 is in both g1 and g3: it applied all three increments.
        assert smr.read(PROCS[0], "c") == 3

    def test_survives_replica_crash(self):
        pattern = crash_pattern(ALL, {PROCS[1]: 3})
        smr = ReplicatedStateMachine(strict_system(pattern, seed=5))
        cmd = smr.submit(PROCS[0], "g1", ("put", "k", 1))
        smr.run()
        assert smr.output_of(PROCS[0], cmd) == 1
