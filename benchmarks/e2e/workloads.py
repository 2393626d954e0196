"""The four benchmark workloads as pure generators.

``generate(name, seed, scale)`` maps a workload name and a seed to a tuple
of :class:`repro.workloads.ScenarioSpec` values and nothing else: the
program under test receives only the specs.  Each workload's ``why`` says
which layers it loads and which it bypasses (see README.md for the layer
table the predictions come from).

Arrivals are open-loop in logical time: every :class:`Send` fires at its
scripted round whether or not earlier multicasts have been delivered.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, Sequence, Tuple

from repro.faults.nemesis import random_plan
from repro.groups.topology import GroupTopology, paper_figure1_topology
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import (
    disjoint_topology,
    hub_topology,
    ring_topology,
)

#: The factor applied to the issue's cell counts (2 / 2 / 40 / 216) so that
#: the driver's 92 runs fit its time cap.  BENCHMARK.json cannot carry it
#: (its keys are fixed), so it is recorded here and in README.md.
DEFAULT_SCALE = 0.5

#: Arrival rate of the open-loop scripts, in multicasts per logical round.
ARRIVALS_PER_ROUND = 2

#: Nemesis mixes of ``campaign-faulted``.  ``chaos`` is left out: it holds
#: one of the two Ordering violations recorded in README.md.
MIXES = ("links", "detectors", "full", "recovery")

#: Fault plans drawn per (base, mix) of ``campaign-faulted``.
PLANS = 6

#: (topology, mix) pairs left out of ``campaign-faulted`` because HEAD
#: violates Ordering on them at some schedule seeds (README.md, "Known at
#: baseline"); a benchmark workload must not fail on any seed.
KNOWN_VIOLATING = frozenset({("figure1", "recovery")})

#: Stall watchdog window armed on every ``campaign-faulted`` cell.
STALL_WINDOW = 150


def open_loop_sends(topology: GroupTopology, count: int) -> Tuple[Send, ...]:
    """``count`` multicasts, round-robin over groups and their members."""
    groups = sorted(topology.groups, key=lambda g: g.name)
    sends = []
    for i in range(count):
        group = groups[i % len(groups)]
        members = sorted(group.members)
        sends.append(
            Send(
                members[i % len(members)].index,
                group.name,
                at_round=1 + i // ARRIVALS_PER_ROUND,
            )
        )
    return tuple(sends)


def _cells(full: int, scale: float) -> int:
    return max(1, round(full * scale))


def _shrink(full: int, cells_full: int, scale: float) -> int:
    """Per-cell size once ``scale`` asks for less than one cell.

    Only smoke runs get here; their numbers compare with nothing.
    """
    return max(8, round(full * min(1.0, cells_full * scale)))


def engine_longlog(seed: int, scale: float) -> Tuple[ScenarioSpec, ...]:
    topology = paper_figure1_topology()
    multicasts = _shrink(480, 2, scale)
    sends = open_loop_sends(topology, multicasts)
    return tuple(
        ScenarioSpec(
            topology=TopologySpec.capture(topology),
            sends=sends,
            seed=seed + i,
            max_rounds=4 * (multicasts // ARRIVALS_PER_ROUND) + 400,
            backend="engine",
            name=f"engine-longlog/figure1/s{seed + i}",
        )
        for i in range(_cells(2, scale))
    )


def kernel_wide(seed: int, scale: float) -> Tuple[ScenarioSpec, ...]:
    groups, group_size = 40, 5
    waves = _shrink(25, 2, scale)
    topology = TopologySpec.from_generator(
        {"kind": "disjoint", "k": groups, "group_size": group_size}
    )
    sends = tuple(
        Send(
            sender=(gi - 1) * group_size + 1,
            group=f"g{gi}",
            at_round=wave * 3,
        )
        for wave in range(waves)
        for gi in range(1, groups + 1)
    )
    return tuple(
        ScenarioSpec(
            topology=topology,
            sends=sends,
            seed=seed + i,
            max_rounds=6000,
            backend="kernel",
            name=f"kernel-wide/disjoint40x5/s{seed + i}",
        )
        for i in range(_cells(2, scale))
    )


def async_shortlog(seed: int, scale: float) -> Tuple[ScenarioSpec, ...]:
    topology = paper_figure1_topology()
    multicasts = 40
    sends = open_loop_sends(topology, multicasts)
    return tuple(
        ScenarioSpec(
            topology=TopologySpec.capture(topology),
            sends=sends,
            seed=seed + i,
            max_rounds=4 * (multicasts // ARRIVALS_PER_ROUND) + 200,
            backend="async",
            delay_model=("exponential", 1.0, 8.0),
            name=f"async-shortlog/figure1/s{seed + i}",
        )
        for i in range(_cells(40, scale))
    )


def campaign_faulted(seed: int, scale: float) -> Tuple[ScenarioSpec, ...]:
    """Short faulted cells: bases x nemesis mixes x six plans.

    The fault plans are part of the workload's shape, like the delay
    model of ``async-shortlog``: plan ``k`` is ``random_plan(k, mix)`` at
    every benchmark seed, and the seed moves only the schedule
    (``spec.seed = seed + k``).  Metrics of two seeds then describe the
    same faults under other interleavings.
    """
    bases = []
    for label, topology, backends in (
        ("figure1", paper_figure1_topology(), ("engine", "async")),
        ("ring5", ring_topology(5), ("engine", "async")),
        ("hub4", hub_topology(4), ("engine", "async")),
        ("disjoint3x3", disjoint_topology(3, 3), ("engine", "kernel", "async")),
    ):
        captured = TopologySpec.capture(topology)
        sends = open_loop_sends(topology, 12)
        for backend in backends:
            bases.append((label, captured, sends, backend))
    # Plan-major, so a scaled prefix still covers every base and mix.
    specs = []
    for k in range(PLANS):
        for label, captured, sends, backend in bases:
            group_names = tuple(name for name, _ in captured.groups)
            for mix in MIXES:
                if (label, mix) in KNOWN_VIOLATING:
                    continue
                plan = random_plan(
                    k,
                    mix,
                    process_count=captured.process_count,
                    groups=group_names,
                    horizon=12,
                )
                specs.append(
                    ScenarioSpec(
                        topology=captured,
                        sends=sends,
                        seed=seed + k,
                        max_rounds=600,
                        backend=backend,
                        faults=plan,
                        name=f"campaign-faulted/{label}/{backend}/{mix}/p{k}",
                    )
                )
    return tuple(specs[: _cells(len(specs), scale)])


@dataclass(frozen=True)
class Workload:
    """One named workload: its generator and why it is in the set."""

    name: str
    why: str
    generate: Callable[[int, float], Tuple[ScenarioSpec, ...]]
    #: Run through ``run_campaign`` (cache, results file, stall watchdog)
    #: instead of bare ``execute_spec`` calls.
    campaign: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "engine-longlog",
            "Figure 1 on the engine with 480-multicast scripts: long shared "
            "logs, so objects.space scans and core.algorithm1 do the work; "
            "kernel, substrates, async driver and faults are bypassed.",
            engine_longlog,
        ),
        Workload(
            "kernel-wide",
            "200 processes in 40 disjoint groups on the kernel: sim.kernel, "
            "substrates, model.messages, scheduler and props carry it; "
            "objects.space, core.algorithm1 and detectors.mu are bypassed.",
            kernel_wide,
        ),
        Workload(
            "async-shortlog",
            "Same Algorithm 1 actors as engine-longlog but 40-multicast "
            "cells on the async driver: short logs, so runtime.async_driver, "
            "runtime.delay and per-cell build take their largest share.",
            async_shortlog,
        ),
        Workload(
            "campaign-faulted",
            "Short faulted cells over 4 topologies x 3 backends x 4 nemesis "
            "mixes through run_campaign: per-cell build, faults.injector, "
            "spec hashing, cache IO and row building dominate.",
            campaign_faulted,
            campaign=True,
        ),
    )
}


def generate(name: str, seed: int, scale: float = DEFAULT_SCALE) -> Tuple[ScenarioSpec, ...]:
    """The cells of workload ``name`` at ``seed`` — a pure function."""
    return WORKLOADS[name].generate(seed, scale)


def warmup_spec(specs: Sequence[ScenarioSpec]) -> ScenarioSpec:
    """A cut-down first cell, run untimed to finish lazy imports."""
    first = specs[0]
    return replace(first, sends=first.sends[:8], name="warmup")


def cells_digest(specs: Sequence[ScenarioSpec]) -> str:
    """sha256 over the cells' ``spec_hash()`` list: pins the workload."""
    joined = "\n".join(spec.spec_hash() for spec in specs)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()
