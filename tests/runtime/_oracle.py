"""The seed loops' scan-everything round, kept as the scheduling oracle.

``Scheduler.round`` skips parked actors after the shuffle; the claim the
differential suites check is that this changes nothing observable.  The
reference is the body ``Scheduler.round`` had while ``"scan"`` was still
a run-time mode, kept verbatim with ``full_scan`` pinned to ``True`` —
every eligible actor fires every round, exactly as the pre-refactor
engine and kernel loops did (``golden.json`` holds their fingerprints).

Bind it over one host with :func:`force_scan`, or over every scheduler a
test builds indirectly (``run_scenario``) with :func:`scan_everywhere`.
It is reachable from ``tests/`` only; ``src/`` has no scan mode.

The async driver has the same arrangement.  Its own
:class:`repro.runtime.async_driver.EventLoop` claims to be asyncio's
loop minus the I/O, with equal deadlines fired in scheduling order;
:class:`asyncio_loop` is the reference — a real asyncio loop behind the
``EventLoop`` surface, under the ``VirtualClock`` shim the driver used
while it still ran on asyncio — and :func:`asyncio_everywhere` binds it
over every driver a test builds.

So does ``gamma(g)``.  ``src/`` scopes the partner sets and the
``CONS_{m,f}`` family key to the group, ``F(g)``; ``golden.json`` was
frozen while both were still derived from the asking process's own
``F(p)`` (the ROADMAP item 6 termination gap).  :func:`process_scoped`
binds that derivation over one system's processes so the golden
fixtures keep replaying their v1 traces, and
:func:`process_scoped_everywhere` over every process a test builds —
the negative control of ``tests/core/test_gamma_scope_regression.py``.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from types import MethodType
from typing import Any

from repro.core.algorithm1 import Algorithm1Process
from repro.detectors.cyclicity import gamma_groups
from repro.runtime import Scheduler, async_driver


def scan_round(self, participation=None, responders=None, action_budget=None):
    """One round of ``self`` (a :class:`Scheduler`) with nobody skipped."""
    self.time += 1
    core = self.core
    if core.pre_round is not None:
        core.pre_round(self.time)
    order = core.eligible_order(self.time, participation)
    # ``order`` is already sorted (it filters the pre-sorted keys);
    # snapshot it before the shuffle for fingerprinting.
    eligible = tuple(order)
    core.refresh_responders(self.time, eligible, responders)
    self._rng.shuffle(order)
    fingerprint_changed = core.note_fingerprint(eligible)
    full_scan = True
    tracer = core.tracer
    tracer.begin_round(self.time, len(order), full_scan)
    fired = 0
    parked_hint = None if full_scan else False
    actors = core.actors
    for key in order:
        actor = actors[key]
        if not full_scan and actor.parked(self.time):
            tracer.note_skipped()
            for reason in actor.SKIP_WAIT:
                tracer.note_wait(reason)
            continue
        count = actor.fire(self.time, action_budget, parked_hint)
        fired += count
        tracer.note_scanned(count)
        if count == 0:
            for reason in actor.wait_reasons():
                tracer.note_wait(reason)
    tracer.end_round()
    return fired


def force_scan(host):
    """Route every round of ``host`` through :func:`scan_round`.

    ``host`` is a :class:`Scheduler` or anything holding one as
    ``_scheduler`` (``MulticastSystem``, ``Kernel``, the baselines);
    ``Scheduler.run``, ``MulticastSystem.tick`` and ``Kernel.round`` all
    call ``scheduler.round``, so the instance binding covers them.
    Returns ``host`` for chaining.
    """
    scheduler = getattr(host, "_scheduler", host)
    scheduler.round = MethodType(scan_round, scheduler)
    return host


def scan_everywhere(monkeypatch):
    """Scan in every scheduler built until the test ends (pytest fixture
    ``monkeypatch``) — for hosts constructed inside ``run_scenario``."""
    monkeypatch.setattr(Scheduler, "round", scan_round)


def process_gamma_partners(self, t, g):
    """``gamma(g)`` from ``self``'s (an :class:`Algorithm1Process`) own
    gamma sample over ``F(p)``."""
    if self.stats is not None:
        self.stats.note_gamma_query()
    return gamma_groups(self.mu.gamma.query(self.pid, t), g)


def process_consensus_family(self, g):
    """Line 20's family key from ``F(p)``: a member of ``g`` carrying no
    intersection of a family of ``g`` gets a different (possibly empty)
    key than the carriers do."""
    return frozenset(
        h.name
        for family in self.topology.families_of_process(self.pid)
        if g in family
        for h in family
        if g.intersects(h)
    )


def process_scoped(system):
    """Scope ``gamma(g)`` and the consensus family of every process of
    ``system`` (a ``MulticastSystem``) to ``F(p)``.  Returns ``system``
    for chaining."""
    for process in system.processes.values():
        process._gamma_partners = MethodType(process_gamma_partners, process)
        process._consensus_family = MethodType(process_consensus_family, process)
    return system


def process_scoped_everywhere(monkeypatch):
    """``F(p)`` scoping in every process built until the test ends
    (pytest fixture ``monkeypatch``) — for systems constructed inside
    ``run_scenario``."""
    monkeypatch.setattr(Algorithm1Process, "_gamma_partners", process_gamma_partners)
    monkeypatch.setattr(Algorithm1Process, "_consensus_family", process_consensus_family)


class VirtualClock:
    """Virtual time source installable onto one asyncio event loop
    (``runtime/clock.py`` as it was, moved here verbatim)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def time(self) -> float:
        """The current virtual time, in seconds."""
        return self._now

    def install(self, loop: Any) -> None:
        """Take over ``loop``'s clock and selector wait.

        After this call ``loop.time()`` returns virtual time and any
        selector wait with a positive timeout advances it by exactly
        that timeout (the selector is still polled non-blockingly first,
        so real I/O readiness — there is none in driver runs — would
        still win).  Install before the loop runs anything.
        """
        # Instance attribute shadows the bound method.
        loop.time = self.time
        selector = loop._selector
        inner_select = selector.select

        def select(timeout: Any = None) -> Any:
            events = inner_select(0)
            if not events and timeout:
                self._now += timeout
            return events

        selector.select = select


class _FifoTimer(asyncio.TimerHandle):
    """A ``TimerHandle`` whose heap order breaks equal deadlines by
    creation order instead of leaving them to ``heapq``'s layout."""

    _created = itertools.count()

    def __init__(self, when, fn, arg, loop):
        super().__init__(when, fn, (arg,), loop)
        self._seq = next(self._created)

    def __lt__(self, other):
        return (self._when, self._seq) < (other._when, other._seq)


class asyncio_loop:
    """``EventLoop``'s surface — ``time`` / ``call_soon`` / ``call_at``
    (cancellable) / ``stop`` / ``run`` — over a real asyncio loop."""

    def __init__(self, clock="virtual"):
        self._loop = asyncio.new_event_loop()
        if clock == "virtual":
            VirtualClock().install(self._loop)
        self.time = self._loop.time
        self.call_soon = self._loop.call_soon
        self.stop = self._loop.stop

    def call_at(self, when, fn, arg):
        # ``BaseEventLoop.call_at`` with the handle class swapped.
        timer = _FifoTimer(when, fn, arg, self._loop)
        heapq.heappush(self._loop._scheduled, timer)
        timer._scheduled = True
        return timer

    def run(self):
        # asyncio logs a raising callback and carries on; ``EventLoop``
        # (and so the driver) expects it to end the run.
        raised = []

        def end_the_run(loop, context):
            raised.append(context["exception"])
            loop.stop()

        self._loop.set_exception_handler(end_the_run)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()
        if raised:
            raise raised[0]


def asyncio_everywhere(monkeypatch):
    """Run every :class:`AsyncDriver` built until the test ends on
    :class:`asyncio_loop` (pytest fixture ``monkeypatch``)."""
    monkeypatch.setattr(async_driver, "EventLoop", asyncio_loop)
