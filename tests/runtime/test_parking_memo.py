"""The parking memo changes nothing a run can show.

``Scheduler.round`` skips a key of ``proven_parked`` without asking its
actor.  The kernel adds a process when ``AutomatonActor.parked`` holds
and its detector lists its change instants, and removes it on every
event that can unpark it: mail, a client call, a rejoin, a detector
change instant and a full scan.  :func:`tests.runtime._oracle.predicate_round`
is the round before the memo, which asks every actor.  Each cell below
runs under both; the round traces (wait-reason order included), the
steps, the delivery sequences and the datagram count must be equal, and
at every memoised skip the predicate must read True.
"""

from __future__ import annotations

import sys

import pytest

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
        self.skips = 0

    def __contains__(self, key):
        found = set.__contains__(self, key)
        if found and sys._getframe(1).f_code is ROUND:
            self.skips += 1
            scheduler = self.scheduler
            assert scheduler.actors[key].parked(scheduler.time), (key, scheduler.time)
        return found


@pytest.fixture
def memo_skips(monkeypatch):
    """Audit the memo of every scheduler the test builds; returns the
    running count of memoised skips."""
    built = []
    init = Scheduler.__init__

    def audited(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.proven_parked = AuditedSet(self)
        built.append(self.proven_parked)

    monkeypatch.setattr(Scheduler, "__init__", audited)
    return lambda: sum(memo.skips for memo in built)


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
def test_nemesis_sweeps(monkeypatch, memo_skips, base, mix):
    for seed in range(10):
        assert_memo_changes_nothing(monkeypatch, faulted(base, mix, seed))
    assert memo_skips() > 0


def test_static_crashes(monkeypatch, memo_skips):
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
    assert memo_skips() > 0


def test_kernel_wide(monkeypatch, memo_skips):
    assert_memo_changes_nothing(monkeypatch, kernel_wide_cell())
    # 16 800 asked before the memo, 11 391 after (test_round_ledger.py).
    assert memo_skips() == 16800 - 11391
