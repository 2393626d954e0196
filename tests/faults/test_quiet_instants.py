"""The injector's quiet instants.

``FaultInjector.links_quiet_from`` is the largest ``until`` over the
kinds :meth:`~repro.faults.injector.FaultInjector.on_send` consults, and
``churn_quiet_from`` the same over the kind ``suppresses`` consults.
From them on the hosts skip the hook — ``AsyncDriver._on_wake`` /
``_actor``, ``Scheduler.eligible_order`` / ``refresh_responders`` and
``MessageBuffer.send`` — so each instant claims that the hook's own
per-event scan would change nothing there.  The oracle is that scan:
``on_send`` with its quiet-instant return disabled, and ``suppresses``
as it is.  It must answer ``BENIGN_SEND`` (``False``) and move neither
the injector's ``rng`` nor its ``stats``, for every nemesis mix ×
``random_plan`` seeds 0–9, at every instant from the quiet one to past
the plan's horizon.  A guard over ``EVENT_KINDS`` fails when a hook
answers to a kind its instant omits.
"""

from __future__ import annotations

import math

import pytest

from repro.faults.injector import (
    BENIGN_SEND,
    CHURN_KINDS,
    SEND_KINDS,
    FaultInjector,
    group_index_map,
)
from repro.faults.nemesis import MIXES, random_plan
from repro.faults.plan import EVENT_KINDS, FaultEvent, plan_of
from repro.groups.topology import paper_figure1_topology

TOPOLOGY = paper_figure1_topology()
GROUPS = group_index_map(TOPOLOGY)
PROCESSES = sorted(TOPOLOGY.processes)
INDICES = [p.index for p in PROCESSES]
LINKS = [(s, d) for s in INDICES for d in INDICES if s != d]


def scanning(plan, seed=0):
    """An injector whose ``on_send`` always runs its per-event scan."""
    injector = FaultInjector(plan, GROUPS, seed=seed)
    injector.links_quiet_from = math.inf
    return injector


def observed(injector, hook):
    """Run ``hook()``; return its answer and whether it moved ``rng`` or
    ``stats``."""
    state, stats = injector.rng.getstate(), dict(injector.stats)
    answer = hook()
    return answer, injector.rng.getstate() != state or injector.stats != stats


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mix", MIXES)
def test_on_send_is_benign_and_silent_from_links_quiet_from(mix, seed):
    plan = random_plan(
        seed, mix, process_count=len(PROCESSES), groups=tuple(GROUPS), horizon=12
    )
    quiet = FaultInjector(plan, GROUPS, seed=seed).links_quiet_from
    injector = scanning(plan, seed)
    # Spend budgets and draws as a run would, up to the quiet instant.
    for t in range(quiet):
        for src, dst in LINKS:
            injector.on_send(src, dst, t)
    for t in range(quiet, plan.horizon() + 4):
        for src, dst in LINKS:
            verdict, moved = observed(injector, lambda: injector.on_send(src, dst, t))
            assert verdict is BENIGN_SEND and not moved, (t, src, dst)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mix", MIXES)
def test_suppresses_nobody_from_churn_quiet_from(mix, seed):
    plan = random_plan(
        seed, mix, process_count=len(PROCESSES), groups=tuple(GROUPS), horizon=12
    )
    injector = FaultInjector(plan, GROUPS, seed=seed)
    for t in range(injector.churn_quiet_from, plan.horizon() + 4):
        for p in PROCESSES:
            answer, moved = observed(injector, lambda: injector.suppresses(p, t))
            assert answer is False and not moved, (t, p)


def test_the_mixes_open_both_windows():
    """The two tests above are not vacuous: some plans keep a link fault
    or a churn window open past ``t = 1``."""
    injectors = [
        FaultInjector(
            random_plan(seed, mix, len(PROCESSES), tuple(GROUPS), horizon=12), GROUPS
        )
        for mix in MIXES
        for seed in range(10)
    ]
    assert max(i.links_quiet_from for i in injectors) > 1
    assert max(i.churn_quiet_from for i in injectors) > 1


# -- The guard over EVENT_KINDS ----------------------------------------------

START, UNTIL = 2, 6


def one_event(kind):
    """A plan of one ``kind`` event, active on ``[START, UNTIL)`` over
    every link and process 1."""
    targets = (1,) if kind in ("crash_burst", "churn", "partition", "crash_recover") else ()
    amount = 2 if kind in ("link_reorder", "link_delay", "link_dup", "link_drop") else 1
    return plan_of(
        FaultEvent(kind=kind, start=START, until=UNTIL, amount=amount, targets=targets)
    )


def send_answers(plan):
    """Whether ``on_send``'s scan ever answers to ``plan``."""
    injector = scanning(plan)
    return any(
        verdict is not BENIGN_SEND or moved
        for t in range(UNTIL + 4)
        for src, dst in LINKS
        for verdict, moved in [observed(injector, lambda: injector.on_send(src, dst, t))]
    )


def churn_answers(plan):
    """Whether ``suppresses`` ever answers to ``plan``."""
    injector = FaultInjector(plan, GROUPS)
    return any(
        injector.suppresses(p, t) for t in range(UNTIL + 4) for p in PROCESSES
    )


@pytest.mark.parametrize("kind", EVENT_KINDS)
def test_each_quiet_instant_covers_every_kind_its_hook_answers_to(kind):
    plan = one_event(kind)
    injector = FaultInjector(plan, GROUPS)
    assert send_answers(plan) == (kind in SEND_KINDS)
    assert injector.links_quiet_from == (UNTIL if kind in SEND_KINDS else 0)
    assert churn_answers(plan) == (kind in CHURN_KINDS)
    assert injector.churn_quiet_from == (UNTIL if kind in CHURN_KINDS else 0)
