"""The 20-seed differential agreement suite: round backends vs async.

The golden suite pins the round drivers byte-for-byte; it cannot pin the
async backend, whose interleavings are genuinely different schedules.
What *must* hold regardless of schedule — and what this suite sweeps 20
seeds per fault mix to check — is semantic agreement:

* **delivery sets**: every (process, message) delivery the engine run
  produces, the async run produces, and vice versa;
* **per-message ordering properties**: the §2.2 Ordering checker (and
  every other ``repro.props`` checker) passes on the async record —
  conflicting messages reach common destinations in one relative order
  even though the schedule is asynchronous;
* **verdict maps**: the violation-count map of the async run equals the
  round run's, fault mix by fault mix.

A different schedule is tolerated (round *counts* may differ);
property violations are not.  Crash times deliberately avoid ``t = 1``:
the async clock starts at logical ``t = 1``, so a send scripted at
round 0 is issued at ``t = 1`` there and at ``t = 0`` on the round
backends — a sender crashing exactly at 1 would be alive for one and
dead for the other by construction, which is a modelling corner, not a
disagreement (see DESIGN.md §14).
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultEvent, FaultPlan
from repro.groups.topology import paper_figure1_topology
from repro.props.batch import batch_verdicts, verdicts_ok
from repro.workloads.runner import random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

SEEDS = tuple(range(20))

#: The fault mixes every seed is swept under.  ``None`` is the
#: fault-free baseline; the others cover the link axis (delay, drop,
#: dup), the detector axis (sigma / omega noise) and a combined mix.
FAULT_MIXES = {
    "none": None,
    "links": FaultPlan(
        (
            FaultEvent(kind="link_delay", start=1, until=8, amount=2),
            FaultEvent(kind="link_drop", start=2, until=9, amount=2),
            FaultEvent(kind="link_dup", start=1, until=6, amount=2),
        )
    ),
    "detectors": FaultPlan(
        (
            FaultEvent(kind="sigma_noise", start=2, until=5),
            FaultEvent(kind="omega_late", start=1, until=6, amount=3),
        )
    ),
    "mixed": FaultPlan(
        (
            FaultEvent(kind="link_delay", start=1, until=7, amount=1),
            FaultEvent(kind="link_drop", start=3, until=8, amount=2),
            FaultEvent(kind="omega_late", start=2, until=6, amount=2),
        )
    ),
    # The recovery axis: a healing partition, a flaky-link window and a
    # crash–recovery of p5.  Fate-determined by construction: partition
    # crossings retransmit at heal time, flaky drops carry bounded
    # retransmission deadlines, and the crash_recover victim goes down
    # at t=0 (dead-from-start on the round *and* the async clock — the
    # t=1 corner of the module docstring cannot split the backends) and
    # rejoins as a correct process that must deliver everything.
    "recovery": FaultPlan(
        (
            FaultEvent(kind="partition", start=3, until=7, targets=(4,)),
            FaultEvent(kind="link_flaky", start=2, until=6, amount=2),
            FaultEvent(kind="crash_recover", start=0, until=8, targets=(5,)),
        )
    ),
}

FIGURE1 = TopologySpec.capture(paper_figure1_topology())
FIGURE1_TOPO = paper_figure1_topology()
DISJOINT = TopologySpec.capture(disjoint_topology(3, group_size=3))
DISJOINT_TOPO = disjoint_topology(3, group_size=3)


def _crashes_for(seed: int) -> tuple:
    """A seed-derived crash schedule that keeps every quorum alive.

    On Figure 1 only p4/p5 belong exclusively to the size-3 groups, so
    they are the safe victims.  Crash times alternate between 0 (dead
    from the start) and 4 (mid-run); never 1 (the async clock's first
    instant — see the module docstring).
    """
    phase = seed % 4
    if phase == 0:
        return ()
    if phase == 1:
        return ((5, 0),)
    if phase == 2:
        return ((4, 4),)
    return ((5, 5),)


def _deliveries(result) -> list:
    return sorted(
        (e.process.name, str(e.message.mid)) for e in result.record.deliveries
    )


def _verdicts(result) -> dict:
    return batch_verdicts(result.record)


def _kernel_safe_crashes(seed: int) -> tuple:
    """Crash schedules whose delivery sets are fate-determined.

    A sender that crashes *mid-run* may or may not get its in-flight
    message delivered — both outcomes satisfy §2.2, and which one
    happens depends on the schedule.  Engine-vs-async still agree there
    (same protocol state machine, and the suite checks it), but the
    kernel is a different implementation, so its comparison sticks to
    no crashes or crashes at 0 (a dead-from-the-start sender is simply
    skipped by every backend).
    """
    return () if seed % 2 == 0 else ((4, 0),)


def _spec(
    topology, seed: int, plan, backend: str, topo_live, crashes
) -> ScenarioSpec:
    return ScenarioSpec(
        topology=topology,
        crashes=crashes,
        sends=tuple(random_sends(topo_live, count=4, seed=seed)),
        seed=seed,
        max_rounds=400,
        backend=backend,
        faults=plan,
    )


class TestEngineVsAsync:
    """Figure 1 (intersecting groups): Algorithm 1 proper, both drivers."""

    @pytest.mark.parametrize("mix", sorted(FAULT_MIXES))
    def test_twenty_seeds_agree(self, mix):
        plan = FAULT_MIXES[mix]
        for seed in SEEDS:
            crashes = _crashes_for(seed)
            engine = run_scenario(
                _spec(FIGURE1, seed, plan, "engine", FIGURE1_TOPO, crashes)
            )
            asynch = run_scenario(
                _spec(FIGURE1, seed, plan, "async", FIGURE1_TOPO, crashes)
            )
            assert engine.quiescent and asynch.quiescent, (mix, seed)
            assert _deliveries(engine) == _deliveries(asynch), (mix, seed)
            assert _verdicts(engine) == _verdicts(asynch), (mix, seed)
            assert verdicts_ok(_verdicts(asynch)), (mix, seed)
            # Skip accounting must agree too: a sender alive for one
            # backend but dead for the other is exactly the t=1 corner
            # the crash schedule avoids.
            assert sorted(s.sender for s in engine.skipped_sends) == sorted(
                s.sender for s in asynch.skipped_sends
            ), (mix, seed)

    def test_round_counts_may_differ_but_sets_never(self):
        """A delay model moves the schedule, which shows up as differing
        round counts — the tolerated axis — while delivery sets stay
        pinned."""
        fingerprints = set()
        rounds = set()
        for dm in (
            ("fixed", 0.5),
            ("uniform", 0.1, 0.9),
            ("exponential", 1.0, 8.0),
        ):
            spec = ScenarioSpec(
                topology=FIGURE1,
                sends=tuple(random_sends(FIGURE1_TOPO, count=4, seed=3)),
                seed=3,
                max_rounds=400,
                backend="async",
                delay_model=dm,
            )
            result = run_scenario(spec)
            assert result.quiescent
            fingerprints.add(tuple(_deliveries(result)))
            rounds.add(result.rounds)
        assert len(fingerprints) == 1
        # Not asserted: len(rounds) > 1 — equal counts are legal too.


class TestKernelVsAsync:
    """Disjoint groups: the Appendix-A kernel vs the async engine run.

    The kernel synthesizes its record from replicated-log applies, so
    agreement here pins the async backend against a *different
    implementation*, not just a different driver.
    """

    @pytest.mark.parametrize("mix", ("none", "links", "recovery"))
    def test_twenty_seeds_agree(self, mix):
        plan = FAULT_MIXES[mix]
        for seed in SEEDS:
            crashes = _kernel_safe_crashes(seed)
            kernel = run_scenario(
                _spec(DISJOINT, seed, plan, "kernel", DISJOINT_TOPO, crashes)
            )
            asynch = run_scenario(
                _spec(DISJOINT, seed, plan, "async", DISJOINT_TOPO, crashes)
            )
            assert kernel.quiescent and asynch.quiescent, (mix, seed)
            assert _deliveries(kernel) == _deliveries(asynch), (mix, seed)
            assert _verdicts(kernel) == _verdicts(asynch), (mix, seed)
            assert verdicts_ok(_verdicts(asynch)), (mix, seed)
