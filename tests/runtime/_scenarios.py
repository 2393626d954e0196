"""The shared scenario matrix of the runtime differential suite.

This module defines, as *data plus builders*, every scenario the
``repro.runtime`` refactor must reproduce byte-for-byte:

* **engine scenarios** — Algorithm 1 deployments over several topologies,
  seeds, failure patterns and participation restrictions, fingerprinted
  by their :class:`repro.model.runs.RunRecord` (every multicast, delivery and
  charged step, in order) and, under the scan oracle
  (:func:`tests.runtime._oracle.force_scan`), by the
  :class:`repro.metrics.trace.TraceRecorder` round stream;
* **kernel scenarios** — Appendix-A automata (a ping/pong mesh and a
  replicated-log cluster), fingerprinted by their output queues, step
  counts and message-buffer accounting;
* **async scenarios** — Algorithm 1 on the async driver's virtual clock,
  Figure 1 and ``disjoint3x3`` under every delay-model kind, with and
  without a ``full`` nemesis plan, fingerprinted by their
  :class:`repro.model.runs.RunRecord`, logical rounds and transport stats.

``generate_golden.py`` ran the engine and kernel builders against the
**pre-refactor** engine and kernel (commit 91a52c1) and froze the
resulting hashes into ``golden.json``; ``test_differential.py`` re-runs
them against the current tree and compares.  A mismatch means the shared
scheduler changed an observable schedule — the one thing the refactor
promised not to do.  The async entries were frozen before the driver's
wake path became one timer per landing, and pin that schedule the same
way: every latency draw, deadline and ``(when, seq)`` tie.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.sim.kernel import Automaton, Kernel
from repro.substrates.replicated_log import ReplicatedLogCluster
from repro.workloads.runner import random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import chain_topology, disjoint_topology, ring_topology
from tests.runtime._oracle import force_scan, process_scoped

#: Seeds of the differential matrix (acceptance floor: >= 20).
SEEDS = tuple(range(20))

#: (name, factory) pairs — the topology axis (acceptance floor: >= 3).
TOPOLOGIES = (
    ("figure1", paper_figure1_topology),
    ("ring4", lambda: ring_topology(4)),
    ("chain3", lambda: chain_topology(3)),
    ("disjoint3x2", lambda: disjoint_topology(3, group_size=2)),
)


def canonical_hash(payload) -> str:
    """sha256 of the canonical-JSON rendering of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- Engine scenarios ---------------------------------------------------------


def record_fingerprint(record):
    """Every observable event of a run, in order, as plain data."""
    return {
        "multicasts": [
            [e.time, e.process.name, str(e.message.mid)] for e in record.multicasts
        ],
        "deliveries": [
            [e.time, e.process.name, str(e.message.mid)] for e in record.deliveries
        ],
        "steps": [[s.time, s.process.name, s.received] for s in record.steps],
    }


def trace_fingerprint(tracer):
    """The per-round trace stream as plain data (JSONL body, no meta)."""
    return [asdict(r) for r in tracer.rounds]


def engine_scenarios():
    """Yield ``(key, run)`` pairs; ``run(scan)`` returns the system,
    driven by the scan oracle when ``scan`` is true.

    The matrix crosses topologies x seeds x {failure-free, crashy}, plus
    a participation-restricted family on the Figure 1 topology.
    """
    for topo_name, factory in TOPOLOGIES:
        for seed in SEEDS:
            for pattern_name in ("ff", "crash"):
                key = f"engine:{topo_name}:{pattern_name}:s{seed}"
                yield key, _engine_runner(factory, pattern_name, seed)
    # Participation-restricted runs: the last process never takes a step
    # (it may still serve quorums — responders default to participation,
    # reproducing the P-fair sub-runs of the necessity constructions).
    for seed in SEEDS[:8]:
        key = f"engine:figure1:participation:s{seed}"
        yield key, _participation_runner(seed)


def _engine_runner(factory, pattern_name, seed):
    def run(scan):
        topology = factory()
        processes = sorted(topology.processes)
        if pattern_name == "crash":
            pattern = crash_pattern(
                topology.processes, {processes[1]: 4, processes[-1]: 9}
            )
        else:
            pattern = failure_free(topology.processes)
        # golden.json was frozen before the gamma-scoping fix (DESIGN.md
        # §13); the suite pins the *runtime loop*, so the fixture replays
        # the pre-fix per-process scoping explicitly.
        system = process_scoped(MulticastSystem(topology, pattern, seed=seed))
        if scan:
            force_scan(system)
        amc = AtomicMulticast(system)
        for send in random_sends(topology, 6, seed=seed):
            sender = next(p for p in processes if p.index == send.sender)
            if system.is_alive(sender):
                amc.multicast(sender, send.group, payload=send.payload)
        amc.run()
        return system

    return run


def _participation_runner(seed):
    def run(scan):
        topology = paper_figure1_topology()
        processes = sorted(topology.processes)
        pattern = failure_free(topology.processes)
        # pre-fix scoping; see _engine_runner
        system = process_scoped(MulticastSystem(topology, pattern, seed=seed))
        if scan:
            force_scan(system)
        amc = AtomicMulticast(system)
        participation = pset(processes[:-1])
        amc.multicast(processes[0], topology.groups[0].name)
        amc.multicast(processes[2], topology.groups[1].name)
        system.run(max_rounds=400, participation=participation)
        return system

    return run


# -- Kernel scenarios ---------------------------------------------------------


class PingEcho(Automaton):
    """Replies PONG to every PING."""

    def on_step(self, ctx, datagram):
        if datagram is None:
            return
        if datagram.tag == "PING":
            ctx.send(datagram.src, "PONG")
        ctx.output(datagram.tag)

    def idle(self):
        return True


class PingChatter(Automaton):
    """Broadcasts PING to its peers once, then idles."""

    def __init__(self, peers):
        self.peers = peers
        self.sent = False

    def on_step(self, ctx, datagram):
        if not self.sent:
            self.sent = True
            ctx.broadcast(self.peers, "PING")
        if datagram is not None:
            ctx.output(datagram.tag)

    def idle(self):
        return self.sent


def kernel_fingerprint(kernel):
    """Outputs, step counts and buffer accounting as plain data."""
    return {
        "outputs": {
            p.name: [[t, str(v)] for t, v in values]
            for p, values in sorted(kernel.outputs.items())
        },
        "sent": kernel.buffer.sent_count,
        "received": kernel.buffer.received_count,
    }


def kernel_scenarios():
    """Yield ``(key, run)``; ``run(scan)`` returns the kernel, driven
    by the scan oracle when ``scan`` is true."""
    for size in (3, 5):
        for seed in SEEDS:
            for pattern_name in ("ff", "crash"):
                key = f"kernel:pingpong{size}:{pattern_name}:s{seed}"
                yield key, _pingpong_runner(size, pattern_name, seed)
    for seed in SEEDS[:10]:
        for pattern_name in ("ff", "crash"):
            key = f"kernel:replog3:{pattern_name}:s{seed}"
            yield key, _replog_runner(pattern_name, seed)


def _pingpong_runner(size, pattern_name, seed):
    def run(scan):
        procs = make_processes(size)
        universe = pset(procs)
        if pattern_name == "crash":
            pattern = crash_pattern(universe, {procs[1]: 3})
        else:
            pattern = failure_free(universe)
        automata = {procs[0]: PingChatter(procs[1:])}
        for p in procs[1:]:
            automata[p] = PingEcho()
        kernel = Kernel(pattern, automata, seed=seed)
        if scan:
            force_scan(kernel)
        kernel.run(12)
        return kernel

    return run


def _replog_runner(pattern_name, seed):
    def run(scan):
        procs = make_processes(3)
        universe = pset(procs)
        if pattern_name == "crash":
            pattern = crash_pattern(universe, {procs[2]: 6})
        else:
            pattern = failure_free(universe)
        cluster = ReplicatedLogCluster(pattern, universe)
        cluster.append(procs[0], f"a{seed}")
        cluster.append(procs[1], f"b{seed}")
        kernel = Kernel(
            pattern, cluster.automata, cluster.detectors, seed=seed
        )
        if scan:
            force_scan(kernel)
        kernel.run(40)
        return kernel

    return run


# -- Async scenarios ----------------------------------------------------------

#: The async cells' topologies: the paper's intersecting example and a
#: disjoint one (no intersection logs, so every wake is a group wake).
ASYNC_TOPOLOGIES = (
    ("figure1", paper_figure1_topology),
    ("disjoint3x3", lambda: disjoint_topology(3, 3)),
)

#: One spec per delay-model kind.  ``fixed`` makes nearly every deadline
#: tie, so it pins the ``(when, seq)`` order; ``exponential`` is capped
#: at 2 so the cap binds; ``slow_pairs`` slows one directed pair each way.
ASYNC_DELAY_MODELS = (
    ("fixed", ("fixed", 0.5)),
    ("uniform", ("uniform", 0.1, 0.9)),
    ("exponential", ("exponential", 1.0, 2.0)),
    ("slow_pairs", ("slow_pairs", 4.0, ((1, 2), (2, 1)), 0.1, 0.9)),
)

#: The async cells' run and plan seed.  Its ``full`` plan drops links
#: on both topologies, so the retransmission ladder is pinned too.
ASYNC_SEED = 8


def async_fingerprint(result):
    """Record, rounds and transport stats of one async run."""
    return {
        "record": canonical_hash(record_fingerprint(result.record)),
        "rounds": result.rounds,
        "transport": dict(result.transport_stats),
    }


def async_scenarios():
    """Yield ``(key, run)``; ``run()`` returns the ``ScenarioResult`` of
    one virtual-clock async cell."""
    for topo_name, factory in ASYNC_TOPOLOGIES:
        for delay_name, delay in ASYNC_DELAY_MODELS:
            for mix in ("none", "full"):
                key = f"async:{topo_name}:{delay_name}:{mix}"
                yield key, _async_runner(factory, delay, mix)


def _async_runner(factory, delay, mix):
    def run():
        topology = factory()
        captured = TopologySpec.capture(topology)
        plan = None
        if mix == "full":
            plan = random_plan(
                ASYNC_SEED,
                mix,
                process_count=captured.process_count,
                groups=tuple(name for name, _ in captured.groups),
                horizon=12,
            )
        spec = ScenarioSpec(
            topology=captured,
            sends=tuple(random_sends(topology, 12, seed=ASYNC_SEED)),
            seed=ASYNC_SEED,
            max_rounds=300,
            backend="async",
            delay_model=delay,
            faults=plan,
        )
        return run_scenario(spec)

    return run
