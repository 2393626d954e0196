"""Every input of a guard verdict voids the memo that holds it.

``MulticastSystem.blocked`` reads a verdict per scope (and per hosting
group, for the ``CONS`` gate) from a memo that
``MulticastSystem.fresh_verdicts`` keeps for one ``scheduler.responders``
object and one epoch of the ``Sigma`` instants and ``Omega``
stabilization times.  Each test below moves one of those inputs while an
operation waits on it and pins when the operation went through; the
scripted ones also run under the per-check guard
(``_oracle.per_check_guards``) and ask for equal charges, per-round guard
counters and wait reasons.  A memo keyed by the scope alone fails every
one of them; one keyed by scope and responders fails the ``sigma_noise``
and ``CONS`` cases, where only the clock moves.
"""

from __future__ import annotations

from repro.core.engine import MulticastSystem
from repro.detectors.mu import Mu, build_mu
from repro.faults.injector import NoisySigma
from repro.groups.topology import paper_figure1_topology
from repro.metrics.trace import WAIT_CONSENSUS, WAIT_QUORUM
from repro.model.failures import FailurePattern, crash_pattern, failure_free
from repro.model.processes import by_indices, make_processes, pset
from repro.workloads.topologies import chain_topology

from ._detectors import late_omega_mu
from ._oracle import per_check_guards

PROCS = make_processes(3)
P1, P2, P3 = PROCS
#: g1 = {p1, p2}, g2 = {p2, p3}.
TOPOLOGY = chain_topology(2)
G1 = TOPOLOGY.group("g1")


def observed(system):
    return (
        list(system.record.charges),
        [
            (r.time, r.quorum_queries, r.quorum_stalls, list(r.wait_reasons.items()))
            for r in system.tracer.rounds
        ],
        [(e.time, e.process, e.message) for e in system.record.deliveries],
    )


def run_both(build, script):
    """Run ``script`` on a fresh ``build()`` system with the memo and with
    the per-check guard; assert the two runs equal and return the first."""
    memoised = build()
    script(memoised)
    checked = per_check_guards(build())
    script(checked)
    assert observed(memoised) == observed(checked)
    return memoised


def fresh():
    return MulticastSystem(TOPOLOGY, failure_free(pset(PROCS)))


def fire_times(system, pid):
    """Log the times ``pid``'s actor fires at in ``system`` from now on:
    the rounds that scan it.  Returns the (live) log."""
    actor = system._scheduler.actors[pid]
    fire, times = actor.fire, []

    def logged(t, *args):
        times.append(t)
        return fire(t, *args)

    actor.fire = logged
    return times


def charge_times(system, reason):
    """The times of the charges whose reason starts with ``reason``."""
    return [t for t, _, why in system.record.charges if why.startswith(reason)]


def test_participation_shrinking_mid_run():
    """A verdict taken with everyone scheduled does not survive a round
    where only p1 is: LOG_g1 then lacks p2's answer."""

    def script(system):
        system.multicast(P1, "g1")
        system.run()  # delivered: g1's verdict was True
        system.multicast(P1, "g1")
        for _ in range(6):
            system.tick(participation=by_indices(1))
        system.run()

    system = run_both(fresh, script)
    shrunk = [r for r in system.tracer.rounds if r.eligible == 1]
    assert len(shrunk) == 6
    assert shrunk[0].quorum_stalls  # then p1 stays parked
    assert not any(r.actions for r in shrunk)
    assert len(system.record.deliveries) == 4


def test_explicit_responders_per_tick():
    """As the Omega extraction drives it: one process scheduled a tick,
    the responders passed explicitly — and changed between ticks."""

    def script(system):
        system.multicast(P1, "g1")
        for responders in (by_indices(1), by_indices(1), by_indices(1, 2)) * 3:
            system.tick(participation=by_indices(1), responders=responders)

    system = run_both(fresh, script)
    rounds = system.tracer.rounds
    # p1 alone cannot answer for g1: every tick with responders {p1} stalls.
    assert all(r.actions == 0 for r in rounds[0::3])
    assert sum(r.actions for r in rounds[2::3]) > 0
    assert [e.process for e in system.record.deliveries] == [P1]


def test_direct_responders_rebind():
    """A scan sees the responder set bound when it starts, even one bound
    by hand between rounds (``tests/metrics/test_trace.py`` probes the
    guard this way)."""
    system = fresh()
    system.multicast(P1, "g1")
    system.run()
    assert len(system.record.deliveries) == 2  # g1's verdict was True
    system.multicast(P1, "g1")
    charges = len(system.record.charges)
    system._scheduler.responders = frozenset()
    actor = system._scheduler.actors[P1]
    assert actor.fire(system.time) == 0
    assert actor.wait_reasons() == {WAIT_QUORUM}
    assert len(system.record.charges) == charges
    system._scheduler.responders = frozenset(PROCS)
    assert actor.fire(system.time) > 0


def test_recovery_witness():
    """DESIGN.md §6's witness on Figure 1: p1 is down on [2, 5), p2 crashes
    at 6, and quorum_ok(·, g1) is False on [2, 5) and True from 5.  p2's
    append to LOG_g1, asked at 2, goes through at 5: p2 stalls at 3, is
    skipped as parked at 4 and is scanned again at p1's rejoin."""
    topology = paper_figure1_topology()
    p1, p2, *_ = sorted(topology.processes)
    pattern = FailurePattern(topology.processes, {p1: 2, p2: 6}, {p1: 5})

    def script(system):
        system.multicast(p2, "g1")  # its actions at 1 memoise True for g1
        system.tick()
        system.tick()
        system.multicast(p2, "g1")  # at 2: deferred to the scan's retry
        for _ in range(6):
            system.tick()

    def build():
        return MulticastSystem(topology, pattern)

    system = run_both(build, script)
    appends = [
        t
        for t, who, why in system.record.charges
        if why == "LOG_g1.append" and who[0] == p2
    ]
    assert 5 in appends
    assert not [t for t in appends if 2 <= t < 5]
    stalled = {r.time for r in system.tracer.rounds if r.quorum_stalls}
    assert 3 in stalled and 4 not in stalled
    spied = build()
    scans = fire_times(spied, p2)
    script(spied)
    assert [t for t in scans if 3 <= t <= 5] == [3, 5]


def test_sigma_noise_window():
    """p2 crashed at 1, so Sigma_g1 answers {p1} — until a ``sigma_noise``
    window pins it to {p1, p2} on [4, 8).  The responders do not change
    at either edge; only the clock crosses them."""
    pattern = crash_pattern(pset(PROCS), {P2: 1})

    def build():
        mu = build_mu(pattern, TOPOLOGY)
        sigmas = dict(mu.sigmas)
        sigmas[G1.members] = NoisySigma(
            mu.sigmas[G1.members], (4, 8), lambda t: 4 <= t < 8
        )
        # The window's edges are Sigma instants: the rounds at 4 and 8
        # are full scans.
        return MulticastSystem(
            TOPOLOGY, pattern, mu=Mu(TOPOLOGY, sigmas, mu.omegas, mu.gamma)
        )

    def script(system):
        system.multicast(P1, "g1")
        for _ in range(3):
            system.tick()
        system.multicast(P1, "g1")  # at 3: the memo holds True for g1
        for _ in range(8):
            system.tick()

    system = run_both(build, script)
    writes = charge_times(system, "LOG_g1")
    assert 3 in writes and 8 in writes
    assert not [t for t in writes if 4 <= t < 8]
    assert [e.process for e in system.record.deliveries] == [P1, P1]


def test_consensus_gate_opens_at_omega_stabilization():
    """With every Omega_g stabilizing at 6, CONS_{m,f} takes no proposal
    before 6 and takes p1's at 6: p1 waits on it at 2, is skipped as
    parked on [3, 6) and is scanned again at the stabilization time."""
    pattern = failure_free(pset(PROCS))

    def script(system):
        system.multicast(P1, "g1")
        for _ in range(9):
            system.tick()

    mu = late_omega_mu(pattern, TOPOLOGY, 6)

    def build():
        return MulticastSystem(TOPOLOGY, pattern, mu=mu)

    system = run_both(build, script)
    assert min(charge_times(system, "CONS[")) == 6
    waits = {r.time for r in system.tracer.rounds if WAIT_CONSENSUS in r.wait_reasons}
    assert 2 in waits and not waits & {3, 4, 5}
    assert len(system.record.deliveries) == 2
    spied = build()
    scans = fire_times(spied, P1)
    script(spied)
    assert [t for t in scans if 2 <= t <= 6] == [2, 6]
