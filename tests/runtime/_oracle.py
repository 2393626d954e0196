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
"""

from __future__ import annotations

from types import MethodType

from repro.runtime import Scheduler


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
