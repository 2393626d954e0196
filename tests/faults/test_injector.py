"""Tests for the fault injector: hooks, budgets, audit."""

import re

import pytest

from repro.detectors.mu import build_mu
from repro.faults.injector import (
    AdmissibilityError,
    BENIGN_SEND,
    FaultInjector,
    derive_injector_seed,
    group_index_map,
    injector_for,
)
from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import crash_pattern, failure_free
from repro.model.messages import MessageBuffer
from repro.model.processes import make_processes, pset
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

PROCS = make_processes(4)
ALL = pset(PROCS)
P1, P2, P3, P4 = PROCS
#: ``g1 = {p1, p2}``, ``g2 = {p3, p4}``.
PAIRS = disjoint_topology(2, group_size=2)


def make_injector(*events, seed=0):
    return FaultInjector(FaultPlan(tuple(events)), seed=seed)


class TestSeedDerivation:
    def test_pure_function_of_plan_and_seed(self):
        plan = FaultPlan((FaultEvent(kind="link_delay", until=4, amount=2),))
        assert derive_injector_seed(plan, 3) == derive_injector_seed(plan, 3)
        assert derive_injector_seed(plan, 3) != derive_injector_seed(plan, 4)
        other = FaultPlan((FaultEvent(kind="link_delay", until=5, amount=2),))
        assert derive_injector_seed(plan, 3) != derive_injector_seed(other, 3)

    def test_injector_for_returns_none_without_plan(self):
        topology = disjoint_topology(2, group_size=3)
        assert injector_for(None, topology) is None
        injector = injector_for(FaultPlan(), topology, seed=7)
        assert injector is not None
        assert injector.groups == group_index_map(topology)


class TestLinkHooks:
    def test_delay_is_the_max_over_active_windows(self):
        injector = make_injector(
            FaultEvent(kind="link_delay", start=0, until=10, amount=2),
            FaultEvent(kind="link_delay", start=0, until=10, amount=5),
        )
        verdict = injector.on_send(1, 2, 3)
        assert verdict.delay == 5
        assert injector.on_send(1, 2, 50) is BENIGN_SEND

    def test_drop_budget_is_bounded_and_always_retransmits(self):
        event = FaultEvent(kind="link_drop", start=0, until=10, amount=2)
        injector = make_injector(event)
        drops = [
            v for t in range(10) for v in [injector.on_send(1, 2, t)] if v.dropped
        ]
        assert len(drops) <= 2
        assert injector.stats["dropped"] == injector.stats["retransmitted"]
        for verdict in drops:
            assert verdict.retransmit_at is not None
            assert verdict.retransmit_at >= event.until or verdict.retransmit_at > 0

    def test_dup_budget_is_bounded(self):
        injector = make_injector(
            FaultEvent(kind="link_dup", start=0, until=20, amount=3)
        )
        copies = sum(injector.on_send(1, 2, t).copies for t in range(20))
        assert copies <= 3
        assert injector.stats["duplicated"] == copies

    def test_pick_receive_is_fifo_outside_windows(self):
        injector = make_injector(
            FaultEvent(kind="link_reorder", start=5, until=8, amount=3)
        )
        assert injector.pick_receive(1, 4, 0) == 0
        assert injector.pick_receive(1, 4, 9) == 0

    def test_pick_receive_stays_inside_the_window(self):
        injector = make_injector(
            FaultEvent(kind="link_reorder", start=0, until=50, amount=3)
        )
        picks = {injector.pick_receive(1, 10, t) for t in range(50)}
        assert picks <= {0, 1, 2}
        assert len(picks) > 1  # the adversary actually reorders

    def test_single_candidate_is_never_reordered(self):
        injector = make_injector(
            FaultEvent(kind="link_reorder", start=0, until=50, amount=4)
        )
        assert all(injector.pick_receive(1, 1, t) == 0 for t in range(50))


class TestScheduleHooks:
    def test_churn_suppresses_targets_inside_the_window(self):
        injector = make_injector(
            FaultEvent(kind="churn", start=3, until=6, targets=(2,))
        )
        assert injector.suppresses(P2, 4)
        assert not injector.suppresses(P2, 2)
        assert not injector.suppresses(P2, 6)
        assert not injector.suppresses(P1, 4)
        assert not injector.suppresses(object(), 4)  # indexless actor

    def test_crash_burst_staggers_crashes(self):
        injector = make_injector(
            FaultEvent(kind="crash_burst", start=5, amount=3, targets=(2, 4))
        )
        pattern = injector.perturb_pattern(failure_free(ALL))
        assert pattern.crash_times[P2] == 5
        assert pattern.crash_times[P4] == 8

    def test_crash_burst_keeps_monotonicity(self):
        injector = make_injector(
            FaultEvent(kind="crash_burst", start=9, amount=0, targets=(1,))
        )
        base = crash_pattern(ALL, {P1: 4})
        assert injector.perturb_pattern(base).crash_times[P1] == 4

    def test_unknown_burst_target_is_rejected(self):
        injector = make_injector(
            FaultEvent(kind="crash_burst", start=1, targets=(9,))
        )
        with pytest.raises(AdmissibilityError):
            injector.perturb_pattern(failure_free(ALL))


class TestDetectorHooks:
    def test_sigma_noise_scopes_by_group(self):
        plan = FaultPlan(
            (FaultEvent(kind="sigma_noise", group="g1", start=2, until=5),)
        )
        injector = FaultInjector(
            plan, {"g1": frozenset({1, 2}), "g2": frozenset({3, 4})}
        )
        assert injector.sigma_noisy(frozenset({1, 2}), 3)
        assert not injector.sigma_noisy(frozenset({3, 4}), 3)
        assert not injector.sigma_noisy(frozenset({1, 2}), 5)

    def test_global_sigma_noise_covers_every_scope(self):
        injector = make_injector(
            FaultEvent(kind="sigma_noise", start=0, until=4)
        )
        assert injector.sigma_noisy(frozenset({1, 2, 3}), 1)

    def test_omega_delays_and_instability(self):
        injector = injector_for(
            FaultPlan((FaultEvent(kind="omega_late", group="g2", until=7),)), PAIRS
        )
        mu = injector.perturb_mu(build_mu(failure_free(ALL), PAIRS))
        g1, g2 = PAIRS.groups
        late = mu.omega(g2)
        assert late.stabilization_time == 7 == mu.omega_settle_time()
        assert mu.omega(g1).stabilization_time == 0
        assert injector.omega_unstable(frozenset({3, 4}), 5)
        assert not injector.omega_unstable(frozenset({3, 4}), 7)
        # Counted when built: one rotation per round of [0, 7).
        assert injector.stats["omega_rotated"] == 7
        # Rotating among the alive members before the floor, then the
        # eventual leader.
        assert [late.query(P3, t) for t in (5, 6, 7, 8)] == [P4, P3, P3, P3]
        assert injector.stats["omega_rotated"] == 7

    def test_gamma_lag_accumulates(self):
        injector = injector_for(
            FaultPlan((
                FaultEvent(kind="gamma_delay", amount=2),
                FaultEvent(kind="gamma_delay", amount=3),
            )),
            PAIRS,
        )
        mu = build_mu(failure_free(ALL), PAIRS, gamma_lag=1)
        assert injector.perturb_mu(mu).gamma.detection_lag == 6
        assert mu.gamma.detection_lag == 1

    def test_plan_without_detector_events_leaves_mu_alone(self):
        injector = injector_for(
            FaultPlan((FaultEvent(kind="link_delay", until=4, amount=2),)), PAIRS
        )
        mu = build_mu(failure_free(ALL), PAIRS)
        assert injector.perturb_mu(mu) is mu


class TestUnknownDetectorGroups:
    """A detector event naming a group the topology lacks used to do
    nothing, silently — the run was ``ok`` and the audit clean."""

    @pytest.mark.parametrize("kind", ["sigma_noise", "omega_late"])
    @pytest.mark.parametrize(
        "backend, topology",
        [
            ("engine", paper_figure1_topology()),
            ("kernel", disjoint_topology(3, group_size=3)),
        ],
        ids=["engine-figure1", "kernel-disjoint3x3"],
    )
    def test_is_rejected_naming_the_topology_groups(self, backend, topology, kind):
        event = FaultEvent(kind=kind, group="g9", start=1, until=6)
        spec = ScenarioSpec(
            topology=TopologySpec.capture(topology),
            sends=(Send(1, "g1", 0),),
            backend=backend,
            faults=FaultPlan((event,)),
            max_rounds=200,
        )
        names = sorted(g.name for g in topology.groups)
        with pytest.raises(FaultPlanError, match=re.escape(f"'g9'; the topology has {names}")):
            run_scenario(spec)


class TestBufferIntegration:
    def test_delayed_datagram_is_invisible_until_release(self):
        injector = make_injector(
            FaultEvent(kind="link_delay", start=0, until=5, amount=3)
        )
        buffer = MessageBuffer(injector)
        buffer.release(0)
        buffer.send(P1, P2, "PING")
        assert not buffer.has_pending(P2)
        assert buffer.delayed_count() == 1
        buffer.release(2)
        assert not buffer.has_pending(P2)
        buffer.release(3)
        assert buffer.has_pending(P2)
        assert buffer.receive(P2).tag == "PING"

    def test_duplicates_get_fresh_uids(self):
        injector = make_injector(
            FaultEvent(kind="link_dup", start=0, until=10, amount=5)
        )
        buffer = MessageBuffer(injector)
        buffer.release(0)
        for _ in range(10):
            buffer.send(P1, P2, "PING")
        queue = buffer.inbox(P2)
        assert len(queue) == 10 + injector.stats["duplicated"]
        assert len({d.uid for d in queue}) == len(queue)

    def test_dropped_datagram_is_retransmitted(self):
        event = FaultEvent(kind="link_drop", start=0, until=4, amount=10)
        injector = make_injector(event)
        buffer = MessageBuffer(injector)
        sent = dropped = 0
        for t in range(4):
            buffer.release(t)
            buffer.send(P1, P2, "PING", (t,))
            sent += 1
        dropped = injector.stats["dropped"]
        assert dropped > 0
        buffer.release(event.until + 1)
        assert len(buffer.inbox(P2)) == sent
        assert buffer.delayed_count() == 0

    def test_without_injector_buffer_is_fifo(self):
        buffer = MessageBuffer()
        buffer.send(P1, P2, "A")
        buffer.send(P1, P2, "B")
        assert buffer.receive(P2).tag == "A"
        assert buffer.receive(P2).tag == "B"


class TestAudit:
    def test_clean_run_audits_clean(self):
        injector = make_injector(
            FaultEvent(kind="link_drop", start=0, until=4, amount=2)
        )
        buffer = MessageBuffer(injector)
        for t in range(8):
            buffer.release(t)
            buffer.send(P1, P2, "PING", (t,))
        buffer.release(injector.horizon)
        assert injector.audit(injector.horizon, buffer=buffer) == []

    def test_unbalanced_drops_are_flagged(self):
        injector = make_injector(
            FaultEvent(kind="link_drop", start=0, until=4, amount=2)
        )
        injector.stats["dropped"] = 1  # a drop without its retransmission
        violations = injector.audit(10)
        assert any("fair-lossy" in v for v in violations)

    def test_budget_overruns_are_flagged(self):
        injector = make_injector(
            FaultEvent(kind="link_dup", start=0, until=4, amount=1)
        )
        injector.stats["duplicated"] = 5
        violations = injector.audit(10)
        assert any("budget" in v for v in violations)

    def test_sequestered_datagrams_past_horizon_are_flagged(self):
        injector = make_injector(
            FaultEvent(kind="link_delay", start=0, until=3, amount=2)
        )
        buffer = MessageBuffer(injector)
        buffer.release(0)
        buffer.send(P1, P2, "PING")  # delayed, never released
        violations = injector.audit(injector.horizon, buffer=buffer)
        assert any("sequestered" in v for v in violations)

    def test_crash_monotonicity_violation_is_flagged(self):
        injector = make_injector(
            FaultEvent(kind="crash_burst", start=2, targets=(1,))
        )
        injector.perturb_pattern(crash_pattern(ALL, {P1: 4}))
        tampered = crash_pattern(ALL, {P1: 9})
        violations = injector.audit(10, pattern=tampered)
        assert any("monotonicity" in v for v in violations)

    def test_summary_reports_plan_identity(self):
        plan = FaultPlan((FaultEvent(kind="gamma_delay", amount=1),))
        injector = FaultInjector(plan)
        summary = injector.summary()
        assert summary["plan_hash"] == plan.plan_hash()
        assert summary["events"] == 1
