"""A parked process is rescanned only where an input of it can move.

A round of the engine is a full scan at the deployment's
``MulticastSystem.scan_instants`` — every ``Sigma`` instant, ``Omega_g``
stabilization time, ``gamma(g)`` instant and indicator instant — and on a
new (scheduled, responder) fingerprint; an async task inside the settle
window skips ``fire`` while it is parked and neither the epoch of those
instants nor the responders moved since its last fire, and still draws
its pacing latency.  Before, every round up to ``settle_horizon`` was a
full scan and every in-window turn fired:
:func:`tests.runtime._oracle.settle_window_everywhere` binds that rule.

The differential runs every golden engine and async cell, every
``ROW_SPECS`` cell and the seed-0 ``campaign-faulted`` cells of
``benchmarks/e2e/workloads.py`` both ways: records, rounds and transport
stats must be equal, and rows equal once ``trace`` (which counts the
scans) is removed.

Past the window the two rules part on purpose.  A pacing sleep may span
the window's end, so a task that last fired before a scan instant and
is parked when it wakes past the window used to wait for a write that
may never come.  It now fires once more; the last test pins the
invariant on a cell where the retired rule loses ``Termination``.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from repro.faults.nemesis import random_plan
from repro.runtime.actors import SharedObjectActor
from repro.runtime.async_driver import AsyncDriver
from repro.runtime.scheduler import Scheduler
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import hub_topology
from tests.runtime._oracle import settle_window_everywhere
from tests.runtime._scenarios import (
    ROW_SPECS,
    async_fingerprint,
    async_scenarios,
    engine_scenarios,
    record_fingerprint,
)

ENGINE_RUNS = dict(engine_scenarios())
ASYNC_RUNS = dict(async_scenarios())


def both(run):
    """``run()`` as shipped, then under the settle-window rule."""
    shipped = run()
    with pytest.MonkeyPatch.context() as patch:
        settle_window_everywhere(patch)
        retired = run()
    return shipped, retired


def outcome(result):
    """Records, rounds and transport stats of a ``run_scenario`` result,
    and its row without ``trace`` (and without the address)."""
    row = result.to_row()
    for key in ("trace", "spec", "spec_hash"):
        del row[key]
    return (
        record_fingerprint(result.record),
        result.rounds,
        result.transport_stats,
        row,
    )


@pytest.mark.parametrize("key", sorted(ENGINE_RUNS))
def test_engine_cell_matches_the_settle_window(key):
    shipped, retired = both(lambda: ENGINE_RUNS[key](scan=False))
    assert record_fingerprint(shipped.record) == record_fingerprint(retired.record)
    assert len(shipped.tracer.rounds) == len(retired.tracer.rounds)


@pytest.mark.parametrize("key", sorted(ASYNC_RUNS))
def test_async_cell_matches_the_settle_window(key):
    shipped, retired = both(ASYNC_RUNS[key])
    assert async_fingerprint(shipped) == async_fingerprint(retired)


@pytest.mark.parametrize("label", sorted(ROW_SPECS))
def test_row_cell_matches_the_settle_window(label):
    shipped, retired = both(lambda: run_scenario(ROW_SPECS[label]))
    assert outcome(shipped) == outcome(retired)


def e2e_workloads():
    """``benchmarks/e2e/workloads.py``, loaded from its file."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "e2e", "workloads.py"
    )
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_campaign_faulted_cells_match_the_settle_window():
    workloads = e2e_workloads()
    for spec in workloads.generate("campaign-faulted", 0):
        shipped, retired = both(
            lambda: run_scenario(spec, stall_window=workloads.STALL_WINDOW)
        )
        assert outcome(shipped) == outcome(retired), spec.name


def window_refires(spec):
    """Run ``spec`` on the engine; return its host and the times at which
    a process proven parked when the round began fired, on a window
    round that is neither a scan instant nor a new fingerprint."""
    fires, parked_at, moved = [], {}, set()
    fire, round_ = SharedObjectActor.fire, Scheduler.round
    note = Scheduler.note_fingerprint

    def logged_round(self, *args):
        parked_at[self.time + 1] = frozenset(self.proven_parked)
        return round_(self, *args)

    def logged_note(self, eligible):
        changed = note(self, eligible)
        if changed:
            moved.add(self.time)
        return changed

    def logged_fire(self, t, *args):
        if self._pid in parked_at.get(t, ()):
            fires.append(t)
        return fire(self, t, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scheduler, "round", logged_round)
        patch.setattr(Scheduler, "note_fingerprint", logged_note)
        patch.setattr(SharedObjectActor, "fire", logged_fire)
        host = run_scenario(spec).host
    rescans = set(host.scan_instants) | moved
    return host, [t for t in fires if t <= host.settle_horizon() and t not in rescans]


def test_a_parked_process_is_not_rescanned_between_scan_instants():
    spec = ROW_SPECS["figure1-engine-chaos"]
    host, refires = window_refires(spec)
    assert host.scan_instants and host.scan_instants[-1] < host.settle_horizon()
    assert refires == []
    # The settle-window rule rescans them (the negative control).
    with pytest.MonkeyPatch.context() as patch:
        settle_window_everywhere(patch)
        _, refires = window_refires(spec)
    assert refires


class PaceCounter:
    """A delay model that counts its pacing draws (``src == dst``)."""

    def __init__(self, inner):
        self._inner = inner
        self.paces = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def latency(self, src, dst, rng):
        if src == dst:
            self.paces += 1
        return self._inner.latency(src, dst, rng)


def paces_and_fires(spec):
    """Pacing draws and fires of one async run of ``spec``."""
    counters, fires = [], []
    init, fire = AsyncDriver.__init__, SharedObjectActor.fire

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.delay = PaceCounter(self.delay)
        counters.append(self.delay)

    def counted_fire(self, t, *args):
        fires.append(t)
        return fire(self, t, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AsyncDriver, "__init__", counted_init)
        patch.setattr(SharedObjectActor, "fire", counted_fire)
        result = run_scenario(spec)
    (counter,) = counters
    return counter.paces, fires, async_fingerprint(result)


def test_a_parked_in_window_turn_paces_without_firing():
    spec = ROW_SPECS["figure1-async-chaos"]
    paces, fires, shipped = paces_and_fires(spec)
    with pytest.MonkeyPatch.context() as patch:
        settle_window_everywhere(patch)
        retired_paces, retired_fires, retired = paces_and_fires(spec)
    # The retired rule drew a pace after every fire and only then.
    assert retired_paces == len(retired_fires)
    # The same turns, the same draws: fewer fires, every turn paced.
    assert (paces, shipped) == (retired_paces, retired)
    assert len(fires) < len(retired_fires)


def hub4_window_gap():
    """A ``campaign-faulted`` cell (``hub4``, ``full`` plan 0, schedule
    seed 2) under a long-tailed latency: ``Omega_g3`` stabilizes at 11,
    inside the settle window (13), while g3's members p1 and p4 are
    parked on ``CONS`` and their pacing sleeps span the window's end."""
    topology = hub_topology(4)
    groups = sorted(topology.groups, key=lambda g: g.name)
    sends = tuple(
        Send(sorted(g.members)[i % 2].index, g.name, at_round=1 + i // 2)
        for i, g in enumerate(groups * 3)
    )
    return ScenarioSpec(
        topology=TopologySpec.capture(topology),
        sends=sends,
        seed=2,
        max_rounds=600,
        backend="async",
        delay_model=("exponential", 2.0, 16.0),
        faults=random_plan(
            0, "full", process_count=5, groups=tuple(g.name for g in groups), horizon=12
        ),
    )


def missed_instants(spec):
    """Run ``spec``; return the result and every (live process, scan
    instant) with no fire of the process at or after the instant."""
    last, fire = {}, SharedObjectActor.fire

    def logged_fire(self, t, *args):
        last[self._pid] = t
        return fire(self, t, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SharedObjectActor, "fire", logged_fire)
        result = run_scenario(spec)
    host = result.host
    missed = [
        (p.name, s)
        for p in sorted(host.topology.processes)
        if host.pattern.is_alive(p, result.rounds)
        for s in host.scan_instants
        if last.get(p, 0) < s
    ]
    return result, missed


@pytest.mark.parametrize(
    "spec",
    [
        hub4_window_gap(),
        ROW_SPECS["figure1-async-chaos"],
        ROW_SPECS["figure1-async-faulted"],
    ],
    ids=["hub4-window-gap", "figure1-async-chaos", "figure1-async-faulted"],
)
def test_every_live_actor_fires_at_or_after_each_scan_instant(spec):
    result, missed = missed_instants(spec)
    assert missed == []
    assert result.delivered_everywhere()


def test_the_settle_window_rule_misses_an_instant_past_the_window():
    spec = hub4_window_gap()
    with pytest.MonkeyPatch.context() as patch:
        settle_window_everywhere(patch)
        result, missed = missed_instants(spec)
    host = result.host
    g3 = host.topology.group("g3")
    assert host.mu.omega(g3).stabilization_time == 11 < host.settle_horizon()
    assert missed == [("p1", 11), ("p4", 11)]
    # Nobody ever asks CONS again: the run quiesces short of Termination.
    assert result.quiescent and not result.delivered_everywhere()
