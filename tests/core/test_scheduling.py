"""Event-driven scheduling: trace equivalence and the Omega settle fix.

Two families of regression tests:

* The wake-index scheduler must produce a :class:`RunRecord`
  byte-identical to the seed scan-everything engine (the oracle in
  ``tests/runtime/_oracle.py``, bound with ``force_scan``) — same
  seeds, same topologies, crashes or not — while scanning strictly
  fewer processes on blocked-heavy runs.

* ``settle_horizon`` must cover ``Omega``'s stabilization (seed bug: it
  only covered crashes + gamma/indicator lags, so a run could be
  declared quiescent — and consensus-blocked messages abandoned —
  before the leader oracles ever stabilized).  Each stabilization time
  is a scan instant, and the horizon is past the last of them.
"""

import pytest

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.props.checkers import assert_run_ok
from repro.workloads.runner import random_sends
from tests.core._detectors import late_omega_mu
from tests.runtime._oracle import force_scan

PROCS = make_processes(5)
ALL = pset(PROCS)


def record_fingerprint(system):
    """Every observable event of a run, in order, as plain tuples."""
    r = system.record
    return (
        [(e.time, e.process, e.message.mid) for e in r.multicasts],
        [(e.time, e.process, e.message.mid) for e in r.deliveries],
        [(t, p, received) for t, ps, received in r.charges for p in ps],
    )


def drive(scan, pattern, seed, count=6):
    topo = paper_figure1_topology()
    system = MulticastSystem(topo, pattern, seed=seed)
    if scan:
        force_scan(system)
    amc = AtomicMulticast(system)
    for send in random_sends(topo, count, seed=seed):
        sender = next(
            p for p in sorted(system.topology.processes)
            if p.index == send.sender
        )
        if system.is_alive(sender):
            amc.multicast(sender, send.group)
    amc.run()
    return system


class TestTraceEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_failure_free_traces_are_byte_identical(self, seed):
        scan = drive(True, failure_free(ALL), seed)
        event = drive(False, failure_free(ALL), seed)
        assert record_fingerprint(scan) == record_fingerprint(event)
        assert_run_ok(event.record)

    @pytest.mark.parametrize("seed", range(6))
    def test_crashy_traces_are_byte_identical(self, seed):
        pattern = crash_pattern(ALL, {PROCS[1]: 4})
        scan = drive(True, pattern, seed)
        event = drive(False, pattern, seed)
        assert record_fingerprint(scan) == record_fingerprint(event)
        assert_run_ok(event.record)

    def test_event_mode_scans_fewer_processes(self):
        event = drive(False, failure_free(ALL), seed=1)
        summary = event.tracer.summary()
        assert summary["skipped"] > 0
        assert summary["scanned"] < summary["eligible"]
        # The scan baseline scans everyone, every round.
        scan = drive(True, failure_free(ALL), seed=1)
        baseline = scan.tracer.summary()
        assert baseline["scanned"] == baseline["eligible"]


class TestOmegaSettleHorizon:
    def test_settle_horizon_covers_omega_stabilization(self):
        # Seed bug: settle_horizon() ignored omega_stabilization, so a
        # failure-free run with a late-stabilizing leader oracle was
        # declared quiescent at time ~1.
        topo, pattern = paper_figure1_topology(), failure_free(ALL)
        system = MulticastSystem(
            topo, pattern, mu=late_omega_mu(pattern, topo, 50)
        )
        assert 50 in system.scan_instants
        assert system.settle_horizon() > system.scan_instants[-1]

    def test_no_consensus_delivery_before_omega_stabilizes(self):
        # Liveness of the §4.3 consensus construction is guaranteed
        # only after Omega_g stabilizes; deliveries gated on CONS must
        # therefore come after the stabilization time.
        topo = paper_figure1_topology()
        pattern = failure_free(ALL)
        system = MulticastSystem(
            topo, pattern, seed=3, mu=late_omega_mu(pattern, topo, 40)
        )
        amc = AtomicMulticast(system)
        p1 = sorted(topo.processes)[0]
        message = amc.multicast(p1, topo.groups[0].name)
        amc.run(max_rounds=300)
        assert not system.record.undelivered(message)
        # The gate opens at t == stabilization_time, so the earliest
        # possible delivery is exactly then — never before.
        assert system.record.first_delivery_time(message) >= 40
        assert_run_ok(system.record)

    def test_late_stabilizing_leader_does_not_abandon_the_run(self):
        # The end-to-end pairing of the two fixes: with the seed
        # horizon the engine went quiescent (two idle rounds) long
        # before t=40 and gave up on the consensus-blocked message.
        topo = paper_figure1_topology()
        pattern = failure_free(ALL)
        system = MulticastSystem(
            topo, pattern, seed=5, mu=late_omega_mu(pattern, topo, 40)
        )
        amc = AtomicMulticast(system)
        p1 = sorted(topo.processes)[0]
        message = amc.multicast(p1, topo.groups[0].name)
        amc.run(max_rounds=300)
        assert not system.record.undelivered(message)
        assert system.time > 40
