"""Quorum gating and participation sets: the engine-level realism that
drives §5 (necessity sub-runs) and §6.2 (group parallelism)."""

import pytest

from repro.core.engine import MulticastSystem
from repro.groups.topology import topology_from_indices
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset
from repro.props.checkers import check_group_parallelism
from repro.workloads.topologies import chain_topology


def two_groups():
    """g1 = {p1,p2}, g2 = {p2,p3}: F = empty."""
    return chain_topology(2), make_processes(3)


class TestQuorumGating:
    def test_partial_participation_blocks_delivery(self):
        """Only p1 scheduled: LOG_g1 cannot gather its quorum ({p1, p2}
        both alive), so the multicast stays undelivered — the behaviour
        that makes the responsiveness signal of Algorithm 2 meaningful."""
        topo, procs = two_groups()
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=1)
        m = system.multicast(procs[0], "g1")
        for _ in range(30):
            system.tick(participation=by_indices(1))
        assert system.record.delivered_by(m) == frozenset()

    def test_full_group_participation_unblocks(self):
        topo, procs = two_groups()
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=1)
        m = system.multicast(procs[0], "g1")
        for _ in range(30):
            system.tick(participation=by_indices(1))  # blocked
        for _ in range(60):
            system.tick(participation=by_indices(1, 2))  # quorum available
        assert system.record.delivered_by(m) == by_indices(1, 2)

    def test_crashed_members_leave_the_required_quorum(self):
        """Once p2 crashes, the Sigma_g1 sample shrinks to {p1}: p1 alone
        can finish (g1 still has a correct member)."""
        topo, procs = two_groups()
        pattern = crash_pattern(pset(procs), {procs[1]: 3})
        system = MulticastSystem(topo, pattern, seed=2)
        m = system.multicast(procs[0], "g1")
        for _ in range(60):
            system.tick(participation=by_indices(1))
        assert procs[0] in system.record.delivered_by(m)

    def test_doomed_scope_pins_quorum_to_full_scope(self):
        """If every member of a scope is faulty, the oracle pins the
        quorum to the full scope; ops block as soon as one member died."""
        topo, procs = two_groups()
        pattern = crash_pattern(pset(procs), {procs[0]: 5, procs[1]: 1})
        system = MulticastSystem(topo, pattern, seed=3)
        system.tick()
        system.tick()  # p2 is now crashed; p1 alive but doomed
        assert not system.quorum_ok(procs[0], by_indices(1, 2))


class TestGroupParallelism:
    def test_isolated_group_delivers_without_contention(self):
        """P-fair run with P = Correct n dst(m): with F = empty and no
        cross-group contention, Algorithm 1 delivers in isolation."""
        topo, procs = two_groups()
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=4)
        m = system.multicast(procs[0], "g1")
        participation = by_indices(1, 2)  # exactly dst(m)
        for _ in range(80):
            system.tick(participation=participation)
        assert (
            check_group_parallelism(system.record, m, participation) == []
        )

    def test_isolation_mode_keeps_slow_path_inside_intersection(self):
        topo, procs = two_groups()
        system = MulticastSystem(
            topo, failure_free(pset(procs)), isolation=True, seed=5
        )
        g1, g2 = topo.group("g1"), topo.group("g2")
        ilog = system.space.intersection_log(g1, g2)
        assert ilog.isolation
        assert ilog._slow_scope() == g1.intersection(g2)

    def test_hosted_slow_path_requires_the_host_group(self):
        topo, procs = two_groups()
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=6)
        g1, g2 = topo.group("g1"), topo.group("g2")
        ilog = system.space.intersection_log(g1, g2)
        assert not ilog.isolation
        assert ilog._slow_scope() == g1.members  # host = smaller name

    def test_wider_intersection_contention_blocks_in_isolation(self):
        """|g1 n g2| = 2: out-of-order appends on LOG_{g1∩g2} force the
        slow path, whose quorum (host group g1) is outside the isolated
        participation set — delivery of the g2 message stalls.  The §6.2
        isolation configuration unblocks the same schedule."""
        topo = topology_from_indices(
            4, {"g1": [1, 2, 3], "g2": [2, 3, 4]}
        )
        procs = make_processes(4)

        def drive(isolation):
            system = MulticastSystem(
                topo,
                failure_free(pset(procs)),
                isolation=isolation,
                seed=7,
            )
            g1, g2 = topo.group("g1"), topo.group("g2")
            ilog = system.space.intersection_log(g1, g2)
            # Simulate pre-existing step contention from a racy prefix.
            ilog._established.append(("append", "phantom"))
            ilog._cursor[procs[1]] = 0
            m = system.multicast(procs[1], "g2")
            for _ in range(80):
                system.tick(participation=by_indices(2, 3, 4))
            return system.record.delivered_by(m)

        blocked = drive(isolation=False)
        unblocked = drive(isolation=True)
        # The intersection members need the contended log; its slow-path
        # quorum (p1) is silent, so they stall...
        assert not (blocked & by_indices(2, 3))
        # ...unless the backing consensus lives inside g1 n g2 (§6.2).
        assert unblocked == by_indices(2, 3, 4)
