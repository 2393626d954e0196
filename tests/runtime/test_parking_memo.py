"""The parking memo changes nothing a run can show.

``Scheduler.round`` skips a key of ``proven_parked`` without asking its
actor.  The kernel adds a process when ``AutomatonActor.parked`` holds
and removes it on every event that can unpark it: mail, a client call,
a rejoin, a change instant of its detector's history and a full scan.
Fault-perturbed detector components are histories too, so under the
``detectors`` and ``full`` mixes skips land on their replicas as well.
:func:`tests.runtime._oracle.predicate_round` is the round before the
memo, which asks every actor.  Each cell below runs under both; the
round traces (wait-reason order included), the steps, the delivery
sequences and the datagram count must be equal, and at every memoised
skip the predicate must read True.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.faults.injector import injector_for
from repro.faults.nemesis import MIXES
from repro.runtime.scheduler import Scheduler
from repro.workloads.runner import run_scenario
from repro.workloads.spec import ScenarioSpec
from tests.core.test_round_ledger import kernel_wide_cell
from tests.runtime._oracle import predicates_everywhere
from tests.substrates.test_parking import BASES, faulted

ROUND = Scheduler.round.__code__


class AuditedSet(set):
    """A ``proven_parked`` set that checks every skip it grants: when
    the round loop finds a key in it, that key's actor is asked anyway
    and must answer parked."""

    def __init__(self, scheduler):
        super().__init__()
        self.scheduler = scheduler
        #: Memoised skips per key.
        self.skips = Counter()

    def __contains__(self, key):
        found = set.__contains__(self, key)
        if found and sys._getframe(1).f_code is ROUND:
            self.skips[key] += 1
            scheduler = self.scheduler
            assert scheduler.actors[key].parked(scheduler.time), (key, scheduler.time)
        return found


@pytest.fixture
def memos(monkeypatch):
    """Audit the memo of every scheduler the test builds; returns their
    memos, in the order built."""
    built = []
    init = Scheduler.__init__

    def audited(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.proven_parked = AuditedSet(self)
        built.append(self.proven_parked)

    monkeypatch.setattr(Scheduler, "__init__", audited)
    return built


def skips(memos, keys=None):
    """The memoised skips ``memos`` granted (to ``keys`` only, if given)."""
    return sum(
        count
        for memo in memos
        for key, count in memo.skips.items()
        if keys is None or key in keys
    )


def perturbed_replicas(spec):
    """The members of every group a ``sigma_noise`` or ``omega_late``
    event of ``spec``'s plan covers, by the injector's own covering rule
    (the one ``perturb_mu`` applies)."""
    topology = spec.topology.build()
    injector = injector_for(spec.faults, topology)
    events = spec.faults.by_kind("sigma_noise", "omega_late")
    replicas = set()
    for g in topology.groups:
        if injector._covers(events, g.members):
            replicas |= g.members
    return replicas


def observed(result):
    kernel = result.kernel
    deliveries = {}
    for event in result.record.deliveries:
        deliveries.setdefault(event.process, []).append(event.message.mid)
    return (
        [(r, list(r.wait_reasons.items())) for r in result.tracer.rounds],
        dict(kernel.steps_taken),
        deliveries,
        kernel.total_messages(),
    )


def assert_memo_changes_nothing(monkeypatch, spec):
    memoised = run_scenario(spec)
    with monkeypatch.context() as patch:
        predicates_everywhere(patch)
        asked = run_scenario(spec)
    assert observed(memoised) == observed(asked), spec.name


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("mix", MIXES)
def test_nemesis_sweeps(monkeypatch, memos, base, mix):
    perturbed = 0
    for seed in range(10):
        spec = faulted(base, mix, seed)
        first = len(memos)
        assert_memo_changes_nothing(monkeypatch, spec)
        perturbed += skips(memos[first:], perturbed_replicas(spec))
    assert skips(memos) > 0
    if mix in ("detectors", "full"):
        # 1 584 over both bases and both mixes; 0 before perturbed
        # components were histories.
        assert perturbed > 0


def test_static_crashes(monkeypatch, memos):
    topology, sends = BASES["2x3"]
    for victim in (1, 2):
        for crash_at in range(1, 9):
            spec = ScenarioSpec(
                topology=topology,
                sends=sends,
                backend="kernel",
                max_rounds=240,
                crashes=((victim, crash_at),),
            )
            assert_memo_changes_nothing(monkeypatch, spec)
    assert skips(memos) > 0


def test_kernel_wide(monkeypatch, memos):
    assert_memo_changes_nothing(monkeypatch, kernel_wide_cell())
    # 16 800 asked before the memo, 11 391 after (test_round_ledger.py).
    assert skips(memos) == 16800 - 11391
