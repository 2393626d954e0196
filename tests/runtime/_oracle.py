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

One step closer to the shipped loop, :func:`predicate_round` is
``Scheduler.round`` as it was before the parking memo: it asks every
actor of a non-full-scan round ``parked(t)``, records each skip with its
own tracer calls and shuffles with the stdlib.  The memo differential
(``tests/runtime/test_parking_memo.py``) binds it with
:func:`predicates_everywhere`.

The eligible set has the same arrangement one level down.
``Scheduler.eligible_order`` recomputes the alive filter only when the
clock crosses one of the failure pattern's change instants;
:func:`swept_eligible_order` is the per-round sweep it replaced, which
``tests/runtime/test_eligibility.py`` compares it against.

The async driver has the same arrangement.  Its own
:class:`repro.runtime.async_driver.EventLoop` claims to be asyncio's
loop minus the I/O, with equal deadlines fired in scheduling order;
:class:`asyncio_loop` is the reference — a real asyncio loop behind the
``EventLoop`` surface, under the ``VirtualClock`` shim the driver used
while it still ran on asyncio — and :func:`asyncio_everywhere` binds it
over every driver a test builds.

The driver's wake path has one more.  ``AsyncDriver._on_wake`` pushes no
timer for a wake that can only land on a flag it finds set, and
``EventLoop.run`` pops a turn's due timers straight off the heap;
:func:`one_timer_per_wake` and :func:`batched_run` are the bodies they
replaced — one timer per wake, and a turn whose due timers are popped
into a local batch before its ready calls run.
:func:`one_timer_per_wake_everywhere` binds both over every driver a
test builds (``tests/runtime/test_wake_elision.py`` diffs the two).

So does ``gamma(g)``.  ``src/`` scopes the partner sets and the
``CONS_{m,f}`` family key to the group, ``F(g)``; ``golden.json`` was
frozen while both were still derived from the asking process's own
``F(p)`` (the termination gap of DESIGN.md §13, "Golden-versioning
policy").  :func:`process_scoped` binds that derivation over one
system's processes so the golden fixtures keep replaying their v1
traces, and
:func:`process_scoped_everywhere` over every process a test builds —
the negative control of ``tests/core/test_gamma_scope_regression.py``.
"""

from __future__ import annotations

import asyncio
import heapq
from heapq import heappop, heappush
from types import MethodType
from typing import Any, List

from repro.core.algorithm1 import Algorithm1Process
from repro.detectors.cyclicity import gamma_groups
from repro.runtime import async_driver
from repro.runtime.async_driver import CLOCK_RESOLUTION, AsyncDriver, EventLoop, _Timer
from repro.runtime.scheduler import Scheduler


def scan_round(self, participation=None, responders=None, action_budget=None):
    """One round of ``self`` (a :class:`Scheduler`) with nobody skipped."""
    self.time += 1
    if self.pre_round is not None:
        self.pre_round(self.time)
    order = self.eligible_order(self.time, participation)
    # ``order`` is already sorted (it filters the pre-sorted keys);
    # snapshot it before the shuffle for fingerprinting.
    eligible = tuple(order)
    self.refresh_responders(self.time, eligible, responders)
    self._rng.shuffle(order)
    fingerprint_changed = self.note_fingerprint(eligible)
    full_scan = True
    tracer = self.tracer
    tracer.begin_round(self.time, len(order), full_scan)
    fired = 0
    parked_hint = None if full_scan else False
    actors = self.actors
    for key in order:
        actor = actors[key]
        if not full_scan and actor.parked(self.time):
            tracer.note_skips(1, ())
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


def predicate_round(self, participation=None, responders=None, action_budget=None):
    """One round of ``self`` (a :class:`Scheduler`) as it ran before the
    parking memo: every actor of a non-full-scan round is asked
    ``parked(t)`` (nobody is skipped unasked), each skip is recorded as
    it happens, and the shuffle is the stdlib's."""
    self.time += 1
    if self.pre_round is not None:
        self.pre_round(self.time)
    order = self.eligible_order(self.time, participation)
    # ``order`` is already sorted (it filters the pre-sorted keys);
    # snapshot it before the shuffle for fingerprinting.
    eligible = tuple(order)
    self.refresh_responders(self.time, eligible, responders)
    self._rng.shuffle(order)
    fingerprint_changed = self.note_fingerprint(eligible)
    full_scan = (
        self.time <= self.settle_horizon
        or fingerprint_changed
        or (action_budget is not None and action_budget <= 0)
    )
    tracer = self.tracer
    tracer.begin_round(self.time, len(order), full_scan)
    fired = 0
    parked_hint = None if full_scan else False
    actors = self.actors
    for key in order:
        actor = actors[key]
        if not full_scan and actor.parked(self.time):
            tracer.note_skips(1, ())
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


def predicates_everywhere(monkeypatch):
    """Run every scheduler built until the test ends on
    :func:`predicate_round` (pytest fixture ``monkeypatch``)."""
    monkeypatch.setattr(Scheduler, "round", predicate_round)


def swept_eligible_order(self, now, participation=None):
    """``self.eligible_order(now, participation)`` (a :class:`Scheduler`)
    by the per-round alive sweep the scheduler ran when a host gave no
    crash instants: every key asked ``is_alive`` every round, no epoch
    memo, then the churn filter."""
    is_alive = self.pattern.is_alive
    if participation is None:
        order = [key for key in self.sorted_keys if is_alive(key, now)]
    else:
        order = [
            key
            for key in self.sorted_keys
            if is_alive(key, now) and key in participation
        ]
    if self.injector is not None:
        order = [
            key
            for key in order
            if not self.injector.suppresses(key, now)
        ]
    return order


def process_gamma_partners(self, t, g):
    """``gamma(g)`` from ``self``'s (an :class:`Algorithm1Process`) own
    gamma sample over ``F(p)``."""
    if self.stats is not None:
        self.stats.gamma_queries += 1
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
    """A ``TimerHandle`` whose heap order breaks equal deadlines by the
    sequence number it was scheduled with instead of leaving them to
    ``heapq``'s layout."""

    def __init__(self, when, seq, fn, arg, loop):
        super().__init__(when, fn, (arg,), loop)
        self._seq = seq

    def __lt__(self, other):
        return (self._when, self._seq) < (other._when, other._seq)


class asyncio_loop:
    """``EventLoop``'s surface — ``now`` / ``call_soon`` / ``call_at``
    (cancellable) / ``stop`` / ``run``, and the ``_timers`` heap and
    ``_seq`` counter the driver pushes wake landings with — over a real
    asyncio loop.  Each asyncio iteration first moves what was pushed
    onto ``_timers`` to the asyncio heap, in ``(when, seq)`` order, so a
    pushed timer is scheduled as if by ``call_at``.

    It ignores the ``transport`` an ``AsyncTransport`` sets on its loop,
    so every wake lands through ``AsyncTransport._land``: the reference
    for ``EventLoop``'s inline landing of a wake on a set flag."""

    def __init__(self):
        self._loop = asyncio.new_event_loop()
        VirtualClock().install(self._loop)
        self.call_soon = self._loop.call_soon
        self.stop = self._loop.stop
        self._timers = []
        self._seq = 0
        run_once = self._loop._run_once

        def schedule_pushed_then_run_once():
            while self._timers:
                self._schedule(*heapq.heappop(self._timers))
            run_once()

        # Instance attribute shadows the bound method ``run_forever`` calls.
        self._loop._run_once = schedule_pushed_then_run_once

    @property
    def now(self):
        return self._loop.time()

    def call_at(self, when, fn, arg):
        self._seq += 1
        return self._schedule(when, self._seq, fn, arg)

    def _schedule(self, when, seq, fn, arg):
        # ``BaseEventLoop.call_at`` with the handle class swapped.
        timer = _FifoTimer(when, seq, fn, arg, self._loop)
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


def one_timer_per_wake(self, woken: Any) -> None:
    """``AsyncDriver._on_wake`` as it was before dead wakes went
    timer-free: every timed wake is one timer, whatever flag it will
    find, and the fault plan is asked whenever one is installed."""
    transport = self._transport
    if transport is None:
        return
    src = self._current
    if src is None:
        for dst in woken:
            transport.deliver_now(dst)
        return
    loop, injector, rng = self._loop, self.injector, self.rng
    latency_of, land, timers = self.delay.latency, transport.land, loop._timers
    now, s = loop.now, src.index
    if injector is not None:
        t = self.now_t()
    for dst in woken:
        if dst == src:
            # The writer re-checks itself on its next loop turn.
            continue
        latency = latency_of(s, dst.index, rng)
        if injector is not None:
            verdict = injector.on_send(s, dst.index, t)
            if verdict.dropped:
                transport.in_flight += 1
                loop.call_at(*self._retry_at(src, dst, t, verdict, latency), dst)
                continue
            latency += float(verdict.delay)
            # Duplicated wakes would be harmless no-ops on an event
            # channel; the verdict's copies need no realization.
        transport.in_flight += 1
        loop._seq = seq = loop._seq + 1
        when = now + (latency if latency > 0.0 else 0.0)
        heappush(timers, _Timer((when, seq, land, dst)))


def batched_run(self) -> None:
    """``EventLoop.run`` as it was before turns ran their timers off the
    heap: the due timers are popped into a local batch first, so a timer
    pushed during the turn is not in it."""
    ready, timers = self._ready, self._timers
    popleft = ready.popleft
    transport = self.transport
    land, woken = (transport.land, transport.woken) if transport else (None, None)
    while not self._stopping:
        while timers and timers[0][2] is None:
            heappop(timers)
        batch: List[_Timer] = []
        if timers:
            if not ready:
                delay = timers[0][0] - self.now
                if delay > 0:
                    self.now += delay
            due = self.now + CLOCK_RESOLUTION
            while timers and timers[0][0] < due:
                batch.append(heappop(timers))
        elif not ready:
            return
        if ready:
            for _ in range(len(ready)):
                fn, arg = popleft()
                fn(arg)
        for timer in batch:
            fn = timer[2]
            if fn is None:
                continue  # a call of this turn cancelled it
            if fn is land and woken[timer[3]]:
                # A task parks only on a clear flag: nobody to resume.
                transport.in_flight -= 1
            else:
                fn(timer[3])


def one_timer_per_wake_everywhere(monkeypatch):
    """Run every :class:`AsyncDriver` built until the test ends with one
    timer per wake and batched turns (pytest fixture ``monkeypatch``)."""
    monkeypatch.setattr(AsyncDriver, "_on_wake", one_timer_per_wake)
    monkeypatch.setattr(EventLoop, "run", batched_run)
