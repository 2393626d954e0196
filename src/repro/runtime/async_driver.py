"""The asynchronous driver: the same actors, under real (or virtual) time.

Where the :class:`repro.runtime.scheduler.Scheduler` advances a logical
clock in lockstep and shuffles the eligible set once per round, the
:class:`AsyncDriver` runs every actor of an
:class:`repro.runtime.core.ExecutionCore` as its own task and lets
*time* interleave them: each cross-process wake travels through an
in-memory channel (:class:`AsyncTransport`) whose latency is drawn from
a pluggable :class:`repro.runtime.delay.DelayModel`, and each process
pauses a model-drawn scheduling latency between consecutive steps.  The
paper's model is exactly this — shared-object operations linearize (a
task is a generator, so every ``fire`` runs uninterrupted to its next
``yield``), but the *schedule* is asynchronous — so a driver run is just
another admissible run of Algorithm 1, and the §2.2 property checkers
judge it unchanged.

A run is a schedule with no I/O in it, so the driver owns its event loop
(:class:`EventLoop`: a FIFO ready queue plus a timer heap) instead of
renting an I/O framework's tasks, futures and selector.

Time is bilingual.  The loop clock (real or virtual) advances
continuously; the model-facing *logical* time is ``t = floor(elapsed /
round_duration) + 1``, so crash times, detector lags and settle horizons
— all defined in round units — keep their meaning.  The host's scheduler
clock is synced to logical time before every fire, so records, quorum
guards and detector queries see a monotone clock.

Fault plans carry over: the driver maps the injector's link verdicts
onto channel perturbations (``link_delay`` adds rounds of latency to a
wake, ``link_drop`` drops it and re-delivers at the fair-lossy
retransmission time, duplication is a harmless extra wake) and honours
participation churn by putting suppressed actors to sleep through their
windows.  Detector noise already applies inside the host's oracles.

What the golden suite does *not* pin here: wall-clock interleavings are
real nondeterminism, so two async runs may order concurrent deliveries
differently.  The differential agreement suite pins what must hold
regardless — delivery sets and property verdicts — and the virtual
clock pins full byte-determinism for replay.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional
from typing import Sequence, Tuple, Union

from repro.model.errors import SimulationError
from repro.model.failures import Time
from repro.runtime.core import ExecutionCore, Key
from repro.runtime.delay import DelayModel, build_delay_model
from repro.runtime.scheduler import RunOutcome

#: Clock sources the driver accepts.
CLOCK_MODES = ("virtual", "wall")

#: Floor on the pacing sleep between consecutive steps of one actor
#: (round units).  Keeps a productive actor from monopolizing the loop
#: at one virtual instant — time must move for crashes and detector
#: transitions to mean anything.
MIN_PACE = 0.125

#: How long a parked actor waits on its channel before re-checking its
#: wait condition anyway (round units).  A pure liveness backstop: with
#: correct wake accounting the event always arrives first.
POLL_ROUNDS = 4.0

#: Timers closer than this to the loop clock count as due (seconds): the
#: monotonic clock's resolution, and slack for ``now + (when - now)``.
CLOCK_RESOLUTION = 1e-9

#: What a task yields to suspend itself: a float sleeps that many loop
#: seconds, a ``(key, timeout)`` pair parks on ``key``'s wake channel.
Task = Iterator[Union[float, Tuple[Key, float]]]


class _Timer(list):
    """One scheduled call, ``[when, seq, fn, arg]``.  Being a list, the
    heap compares timers in C — deadline first, scheduling order on a
    tie — and cancelling blanks ``fn`` in place, wherever the timer is."""

    __slots__ = ()

    def cancel(self) -> None:
        self[2] = None


class EventLoop:
    """A FIFO ready queue and a timer heap under a virtual or wall clock.

    One *turn* drops cancelled timers off the heap's head; if nothing is
    ready, waits for the head's deadline; moves every timer due within
    :data:`CLOCK_RESOLUTION` to the ready queue in ``(when, seq)`` order;
    then runs the calls that were ready at that point — calls queued by
    those run next turn.  So equal deadlines fire in scheduling order, by
    rule, and a callback that raises leaves :meth:`run` at once.

    The clocks differ only in how they wait.  ``"virtual"`` assigns
    ``now += when - now``: a run never consults the OS and is a pure
    function of its inputs.  ``"wall"`` calls ``time.sleep`` — a run
    performs no I/O, so there is nothing else to wait on.
    """

    def __init__(self, clock: str = "virtual") -> None:
        self._ready: Deque[Sequence[Any]] = deque()
        self._timers: List[_Timer] = []
        self._seq = 0
        self._now = 0.0
        self._stopping = False
        if clock == "wall":
            # Instance attributes shadow the virtual methods below.
            self.time, self._wait = time.monotonic, time.sleep

    def time(self) -> float:
        """The loop clock, in seconds."""
        return self._now

    def _wait(self, delay: float) -> None:
        self._now += delay

    def call_soon(self, fn: Callable, arg: Any) -> None:
        """Queue ``fn(arg)`` behind everything already ready."""
        self._ready.append((fn, arg))

    def call_at(self, when: float, fn: Callable, arg: Any) -> _Timer:
        """Schedule ``fn(arg)`` at loop time ``when``; ``.cancel()`` the
        returned timer to call it off."""
        self._seq += 1
        timer = _Timer((when, self._seq, fn, arg))
        heappush(self._timers, timer)
        return timer

    def stop(self) -> None:
        """Make :meth:`run` return once the current turn is over."""
        self._stopping = True

    def run(self) -> None:
        """Take turns until stopped (or until nothing is left to run)."""
        ready, timers = self._ready, self._timers
        clock, wait = self.time, self._wait
        while not self._stopping:
            while timers and timers[0][2] is None:
                heappop(timers)
            if timers:
                if not ready:
                    delay = timers[0][0] - clock()
                    if delay > 0:
                        wait(delay)
                due = clock() + CLOCK_RESOLUTION
                while timers and timers[0][0] < due:
                    ready.append(heappop(timers))
            elif not ready:
                return
            for _ in range(len(ready)):
                call = ready.popleft()
                if call[-2] is not None:
                    call[-2](call[-1])


def derive_async_seed(seed: int, delay_spec: Any) -> int:
    """The driver RNG seed: a pure function of (run seed, delay spec).

    Mirrors :func:`repro.faults.injector.derive_injector_seed`: latency
    randomness must never touch the host's schedule RNG, and a virtual
    clock replay must redraw the identical latency stream.
    """
    blob = f"async:{seed}:{delay_spec!r}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


#: The ack/retransmit resilience layer's backoff: when the fault plan
#: drops a wake, the sender schedules up to ``RETRY_BUDGET`` optimistic
#: retransmissions — the first ``RETRY_BASE`` round units out, each gap
#: ``RETRY_FACTOR`` times the last and stretched by up to
#: ``RETRY_JITTER`` of itself — plus the *unconditional* fair-lossy
#: landing at the lossy window's close (never part of the budget).
RETRY_BASE = 0.5
RETRY_FACTOR = 2.0
RETRY_JITTER = 0.25
RETRY_BUDGET = 3


def _retry_offsets(rng: random.Random) -> List[float]:
    """Cumulative backoff offsets (round units) of each retry.

    Draws one ``rng.random()`` per retry from the driver's private RNG,
    so the ladder is byte-deterministic under the virtual clock.
    """
    delay, elapsed, out = RETRY_BASE, 0.0, []
    for _ in range(RETRY_BUDGET):
        elapsed += delay * (1.0 + RETRY_JITTER * rng.random())
        out.append(elapsed)
        delay *= RETRY_FACTOR
    return out


class AsyncTransport:
    """In-memory wake channels: one flag per actor, deliveries timed.

    The engine's shared objects stand in for the payload network (state
    is linearizable the instant it is written); what the transport
    carries is *visibility* — the wake that tells a reader its wait
    condition may have changed.  A delivery scheduled ``latency`` ahead
    means the reader will not notice the write before then, which is
    precisely a channel delay in the shared-memory reading of the model.

    A channel is a pending-wake flag plus a slot for the one task parked
    on it, so the transport is also what resumes tasks (:meth:`step`).
    """

    def __init__(self, loop: Any, keys: Sequence[Key]) -> None:
        self._loop = loop
        #: Per key, whether a wake has arrived that no wait has consumed.
        self.woken: Dict[Key, bool] = dict.fromkeys(keys, False)
        #: Per parked key, its task and the timer of its park timeout.
        self._parked: Dict[Key, Tuple[Task, Any]] = {}
        #: Wakes scheduled but not yet landed — nonzero means the system
        #: is *not* quiescent no matter how idle it looks.
        self.in_flight = 0
        #: Resilience-layer accounting (see :meth:`deliver_with_retries`):
        #: retransmissions scheduled, acks observed (first landing of a
        #: laddered wake), and retries the ack cancelled.
        self.stats: Dict[str, int] = {
            "retries_scheduled": 0,
            "retries_lost": 0,
            "acked": 0,
            "retries_cancelled": 0,
        }

    def step(self, task: Task) -> None:
        """Resume ``task`` until it suspends again (or retires): a sleep's
        end and a park's timeout call this straight from their timer, a
        wake resumes a parked task through the ready queue."""
        request, loop = next(task, None), self._loop
        if type(request) is tuple:
            key, timeout = request
            self._parked[key] = task, loop.call_at(
                loop.time() + timeout, self._unpark, key
            )
        elif request is not None:
            loop.call_at(loop.time() + request, self.step, task)

    def _unpark(self, key: Key) -> None:
        self.step(self._parked.pop(key)[0])

    def deliver_now(self, key: Key) -> None:
        """Zero-latency wake (local events: injection, detector ticks):
        a parked task resumes on the loop's next turn, any other finds
        the flag at its next :meth:`wait`."""
        if key not in self.woken:
            return
        self.woken[key] = True
        parked = self._parked.pop(key, None)
        if parked is not None:
            parked[1].cancel()
            self._loop.call_soon(self.step, parked[0])

    def deliver_at(self, when: float, key: Key) -> None:
        """Schedule a wake to land at loop time ``when``."""
        if key in self.woken:
            self.in_flight += 1
            self._loop.call_at(when, self._land, key)

    def deliver_with_retries(self, whens: Sequence[float], key: Key) -> None:
        """Schedule one wake with a retransmission ladder.

        ``whens`` are the attempt instants (loop times) — the bounded
        optimistic retransmissions plus the unconditional fair-lossy
        backstop.  The first attempt to land delivers the wake and
        *acks* it, cancelling every later rung; cancelled rungs are
        retransmissions the ack made unnecessary.  Exactly one landing
        happens per call, so ``in_flight`` stays exact.
        """
        if key not in self.woken or not whens:
            return
        self.in_flight += 1
        ordered = sorted(whens)
        self.stats["retries_scheduled"] += len(ordered) - 1
        handles: List[Any] = []

        def _ack(which: int) -> None:
            self.stats["acked"] += 1
            for i, handle in enumerate(handles):
                if i != which:
                    handle.cancel()
                    self.stats["retries_cancelled"] += 1
            self._land(key)

        for i, when in enumerate(ordered):
            handles.append(self._loop.call_at(when, _ack, i))

    def _land(self, key: Key) -> None:
        self.in_flight -= 1
        self.deliver_now(key)

    def wait(self, key: Key, timeout: float) -> Task:
        """Park on ``key``'s channel until a wake (or the timeout); a
        wake that already arrived is consumed without suspending."""
        if not self.woken[key]:
            yield key, timeout
        self.woken[key] = False


class AsyncDriver:
    """Drive a :class:`repro.core.MulticastSystem` under asynchrony.

    Args:
        system: the engine deployment to drive.  The driver reuses the
            system's :class:`ExecutionCore` (actors, eligibility,
            responders, settle horizon) and installs itself as the
            system's wake listener for the duration of :meth:`run`.
        delay_model: a :class:`DelayModel`, a delay spec tuple, or
            ``None`` for the default (see :mod:`repro.runtime.delay`).
        round_duration: wall seconds per round unit.  Virtual-clock runs
            conventionally use 1.0 (time is free); wall-clock runs pick
            the real pacing.
        clock: ``"virtual"`` (seeded-deterministic, the default) or
            ``"wall"`` (real time, real nondeterminism).
        seed: scenario seed; the driver derives its private latency RNG
            from ``(seed, delay spec)``.
    """

    def __init__(
        self,
        system: Any,
        *,
        delay_model: Any = None,
        round_duration: float = 1.0,
        clock: str = "virtual",
        seed: int = 0,
    ) -> None:
        if clock not in CLOCK_MODES:
            raise SimulationError(
                f"unknown clock {clock!r}; expected one of {CLOCK_MODES}"
            )
        if round_duration <= 0:
            raise SimulationError("round_duration must be positive")
        self.system = system
        self._sched = system._scheduler
        self.core: ExecutionCore = self._sched.core
        self.injector = system.injector
        self.delay: DelayModel = (
            delay_model
            if isinstance(delay_model, DelayModel)
            else build_delay_model(delay_model)
        )
        self.round_duration = float(round_duration)
        self.clock = clock
        self.rng = random.Random(derive_async_seed(seed, self.delay.spec()))
        #: Transport resilience stats of the last completed run (the
        #: transport itself is torn down at run end).
        self.last_transport_stats: Dict[str, int] = {}
        #: Index of the first send not yet handed to ``issue`` when the
        #: run ended (everything before it was issued or skipped).
        self.sends_cursor = 0
        self._loop: Any = None
        self._transport: Optional[AsyncTransport] = None
        self._current: Optional[Key] = None
        self._t0 = 0.0
        self._fired_window = self._total_fired = 0
        self._quiescent = self._stopped = False

    # -- Time --------------------------------------------------------------

    def now_t(self) -> Time:
        """Logical (round-unit) time of the driving clock."""
        elapsed = self._loop.time() - self._t0
        return int(elapsed / self.round_duration + 1e-9) + 1

    def _sync_time(self, t: Time) -> None:
        """Push logical time into the host's scheduler clock (monotone:
        ``now_t`` never decreases and equal pushes are no-ops)."""
        if t > self._sched.time:
            self._sched.time = t

    # -- Wake plumbing -----------------------------------------------------

    def _on_wake(self, woken: Any) -> None:
        """The host dirtied ``woken`` readers: route wakes through the
        channels.  Called synchronously from inside a fire (writer known)
        or from driver-level events like send injection (writer None)."""
        transport = self._transport
        if transport is None:
            return
        src = self._current
        if src is None:
            for dst in woken:
                transport.deliver_now(dst)
            return
        now = self._loop.time()
        t = self.now_t()
        for dst in woken:
            if dst == src:
                # The writer re-checks itself on its next loop turn.
                continue
            self._deliver(src, dst, t, now)

    def _deliver(self, src: Key, dst: Key, t: Time, now: float) -> None:
        """Route one wake through the channel model + resilience layer."""
        transport = self._transport
        rd = self.round_duration
        latency = self.delay.latency(src.index, dst.index, self.rng)
        if self.injector is not None:
            verdict = self.injector.on_send(src.index, dst.index, t)
            if verdict.dropped:
                transport.deliver_with_retries(
                    self._retry_ladder(src, dst, t, verdict, latency), dst
                )
                return
            latency += float(verdict.delay)
            # Duplicated wakes would be harmless no-ops on an event
            # channel; the verdict's copies need no realization.
        transport.deliver_at(now + max(latency, 0.0) * rd, dst)

    def _retry_ladder(
        self,
        src: Key,
        dst: Key,
        t: Time,
        verdict: Any,
        latency: float,
    ) -> List[float]:
        """Attempt instants (loop times) for one dropped wake.

        The ladder holds every bounded backoff retransmission whose
        probe time faces a *clear* channel
        (:meth:`repro.faults.FaultInjector.link_clear` — attempts
        inside the lossy window are lost and not scheduled), plus the
        unconditional fair-lossy landing at the window close.  The
        earliest rung acks the rest, so with a clear early retry the
        wake lands *before* the heal-time backstop — graceful
        degradation the round hosts cannot express.
        """
        transport = self._transport
        rd = self.round_duration
        now = self._loop.time()
        final = (
            now
            + (max(float(verdict.retransmit_at - t), 1.0) + latency) * rd
        )
        ladder = [final]
        for offset in _retry_offsets(self.rng):
            when = now + (1.0 + offset + latency) * rd
            if when >= final:
                break
            probe_t = t + 1 + int(offset)
            if self.injector.link_clear(src.index, dst.index, probe_t):
                ladder.append(when)
                break
            transport.stats["retries_lost"] += 1
        return ladder

    def _pace(self, key: Key) -> float:
        """Scheduling latency between consecutive steps of ``key``."""
        return max(
            self.delay.latency(key.index, key.index, self.rng), MIN_PACE
        )

    # -- Tasks -------------------------------------------------------------

    def _actor(self, key: Key) -> Task:
        core = self.core
        actor = core.actors[key]
        transport = self._transport
        rd = self.round_duration
        injector = core.injector
        while not self._stopped:
            t = self.now_t()
            if not core.is_alive(key, t):
                rejoin = self.system.pattern.recovery_times.get(key)
                if rejoin is None or rejoin <= t:
                    return  # crash-stop: the task retires
                # Crash-recovery: park until the rejoin instant.  The
                # actor's in-memory state stands in for the durable
                # substrate snapshot (the kernel backend exercises the
                # explicit snapshot/restore path).
                target = self._t0 + (rejoin - 1) * rd
                yield max(target - self._loop.time(), rd)
                continue
            if injector is not None and injector.suppresses(key, t):
                # Participation churn: sleep through the window.
                yield rd
                continue
            if t <= core.settle_horizon() or not actor.parked(t):
                # Forced scans while detectors may still move mirror the
                # round driver's full-scan window.
                self._sync_time(t)
                self._current = key
                try:
                    fired = actor.fire(t, None, None)
                finally:
                    self._current = None
                self._fired_window += fired
                self._total_fired += fired
                yield self._pace(key) * rd
                continue
            yield from transport.wait(key, POLL_ROUNDS * rd)

    def _inject(
        self,
        pending: Sequence[Any],
        issue: Optional[Callable[[Any, Time], None]],
    ) -> Task:
        """Issue each scripted send at the logical time the round driver
        would have: ``t == at_round`` (clamped to the async clock's
        t >= 1), so alive-at-issue races agree across backends."""
        loop = self._loop
        rd = self.round_duration
        for send in pending:
            target = max(send.at_round - 1, 0) * rd
            remaining = self._t0 + target - loop.time()
            if remaining > 0:
                yield remaining
            t = self.now_t()
            self._sync_time(t)
            self.sends_cursor += 1
            if issue is not None:
                issue(send, t)

    def _supervise(
        self,
        pending: Sequence[Any],
        max_rounds: int,
        quiescent_rounds: int,
        watchdog: Optional[Any],
    ) -> Task:
        core = self.core
        transport = self._transport
        rd = self.round_duration
        idle = 0
        # Crash *and* recovery instants: a rejoin changes quorum
        # availability just as a crash does, so it forces wakes too.
        crash_instants = list(self.system.pattern.change_instants())
        instant_cursor = 0
        while True:
            yield rd
            t = self.now_t()
            self._sync_time(t)
            eligible = core.eligible_order(t)
            core.refresh_responders(t, tuple(eligible), None)
            # Record participation transitions exactly like the round
            # drivers do, so async runs carry the same interleaving
            # fingerprint stream the explorer uses as coverage.
            core.note_fingerprint(tuple(eligible))
            # Forced wakes: the async analogue of the round driver's
            # full-scan triggers — detector settle window, and crossings
            # of crash instants (quorum availability changed).
            woke = False
            while (
                instant_cursor < len(crash_instants)
                and crash_instants[instant_cursor] <= t
            ):
                instant_cursor += 1
                woke = True
            if woke or t <= core.settle_horizon() + 1:
                for key in eligible:
                    transport.deliver_now(key)
            if watchdog is not None:
                watchdog.check(t)
            if t >= max_rounds:
                self._quiescent = False
                break
            window, self._fired_window = self._fired_window, 0
            busy = (
                window > 0
                or transport.in_flight > 0
                or self.sends_cursor < len(pending)
                or t < core.settle_horizon()
                or core.has_pending_work()
            )
            if not busy and self._all_parked(t, eligible):
                idle += 1
                if idle >= quiescent_rounds:
                    self._quiescent = True
                    break
            else:
                idle = 0
        # Not in a ``finally``: a raising watchdog leaves ``run`` by itself,
        # and a finalizer may run after ``run`` has dropped the loop.
        self._stopped = True
        self._loop.stop()

    def _all_parked(self, t: Time, eligible: Sequence[Key]) -> bool:
        woken, actors = self._transport.woken, self.core.actors
        # An unconsumed wake counts as not parked: someone will act.
        return not any(
            woken[key] or not actors[key].parked(t) for key in eligible
        )

    # -- Entry point -------------------------------------------------------

    def run(
        self,
        *,
        sends: Sequence[Any] = (),
        issue: Optional[Callable[[Any, Time], None]] = None,
        max_rounds: int = 600,
        quiescent_rounds: int = 2,
        watchdog: Optional[Any] = None,
    ) -> RunOutcome:
        """Run to quiescence (or the logical-round budget).

        ``sends`` is the scripted workload sorted by ``at_round``; the
        driver calls ``issue(send, t)`` when logical time reaches each
        instruction (the callback owns skip accounting and the actual
        multicast).  Returns a :class:`RunOutcome` whose ``rounds`` is
        the logical time reached — directly comparable with the round
        driver's budget accounting.
        """
        pending = sorted(sends, key=lambda s: s.at_round)
        keys = self.core.sorted_keys
        loop = self._loop = EventLoop(self.clock)
        transport = self._transport = AsyncTransport(loop, keys)
        self._t0 = loop.time()
        self._stopped = self._quiescent = False
        self._fired_window = self._total_fired = self.sends_cursor = 0
        self.system.wake_listener = self._on_wake
        # The injection task is queued first: the loop starts tasks in
        # queueing order, so sends due at the clock's first instant are
        # issued before any actor fires — as the round loop does.
        for task in (
            self._inject(pending, issue),
            *map(self._actor, keys),
            self._supervise(pending, max_rounds, quiescent_rounds, watchdog),
        ):
            loop.call_soon(transport.step, task)
        try:
            # A raising fire, ``issue`` or watchdog leaves from where it is.
            loop.run()
            final_t = min(self.now_t(), max_rounds)
        finally:
            self.last_transport_stats = dict(transport.stats)
            self.system.wake_listener = None
            self._loop = None
            self._transport = None
        self._sync_time(final_t)
        self._sched.last_run_quiescent = self._quiescent
        return RunOutcome(
            rounds=final_t,
            quiescent=self._quiescent,
            fired=self._total_fired,
        )


__all__ = [
    "AsyncDriver",
    "AsyncTransport",
    "CLOCK_MODES",
    "EventLoop",
    "derive_async_seed",
]
