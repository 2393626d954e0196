"""The asynchronous driver: the same actors, under modelled latencies.

Where the :class:`repro.runtime.scheduler.Scheduler` advances a logical
clock in lockstep and shuffles the eligible set once per round, the
:class:`AsyncDriver` runs every actor of that same scheduler as its own
task and lets *time* interleave them: each cross-process wake travels
through an in-memory channel (:class:`AsyncTransport`) whose latency is
drawn from a pluggable :class:`repro.runtime.delay.DelayModel`, and
each process pauses a model-drawn scheduling latency between consecutive
steps.  The
paper's model is exactly this — shared-object operations linearize (a
task is a generator, so every ``fire`` runs uninterrupted to its next
``yield``), but the *schedule* is asynchronous — so a driver run is just
another admissible run of Algorithm 1, and the §2.2 property checkers
judge it unchanged.

A run is a schedule with no I/O in it, so the driver owns its event loop
(:class:`EventLoop`: a FIFO ready queue plus a timer heap) instead of
renting an I/O framework's tasks, futures and selector.

Loop time is round time.  The loop clock starts at ``0.0`` and advances
continuously in round units; the model-facing *logical* time is ``t =
floor(now) + 1``, so crash times, detector lags and settle horizons keep
their meaning.  The scheduler's clock is synced to logical time before
every fire, so records, quorum guards and detector queries see a
monotone clock.  A supervisor task wakes every eligible task on each
round up to one past the scheduler's settle horizon (past its last scan
instant and the fault plan's horizon, so past every crash and rejoin);
from then on a parked task resumes only on a wake.

Fault plans carry over: the driver maps the injector's link verdicts
onto channel perturbations (``link_delay`` adds rounds of latency to a
wake, ``link_drop`` drops it and re-delivers at the fair-lossy
retransmission time, duplication is a harmless extra wake) and honours
participation churn by putting suppressed actors to sleep through their
windows.  Detector noise already applies inside the host's ``mu``.

A run is a pure function of its inputs: the loop never consults the OS,
and every latency is drawn from a private RNG seeded by the scenario.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional
from typing import Sequence, Tuple, Union

from repro.model.errors import SimulationError
from repro.model.failures import Time
from repro.runtime.delay import DelayModel, build_delay_model
from repro.runtime.scheduler import Key, RunOutcome

#: Floor on the pacing sleep between consecutive steps of one actor
#: (round units).  Keeps a productive actor from monopolizing the loop
#: at one virtual instant — time must move for crashes and detector
#: transitions to mean anything.
MIN_PACE = 0.125

#: Timers closer than this to the loop clock count as due (round units):
#: slack for the float arithmetic of ``now + (when - now)``.
CLOCK_RESOLUTION = 1e-9

#: What a task yields to suspend itself: a float sleeps that many round
#: units, a ``(key,)`` one-tuple parks on ``key``'s wake channel until a
#: wake lands, and ``None`` means the task pushed its own wake-up timer.
Task = Iterator[Optional[Union[float, Tuple[Key]]]]


class _Timer(list):
    """One scheduled call, ``[when, seq, fn, arg]``.  Being a list, the
    heap compares timers in C: deadline first, scheduling order on a
    tie.  A timer is never called off: it runs when it is due."""

    __slots__ = ()


class EventLoop:
    """A FIFO ready queue and a timer heap under a logical clock.

    One *turn*, if nothing is ready, advances the clock to the timer
    heap's head deadline; fixes the turn's
    deadline, ``now + CLOCK_RESOLUTION``, and its ``_seq`` mark; runs
    the calls that were ready at that point; then pops the due timers
    straight off the heap in ``(when, seq)`` order and runs them.  A
    timer numbered past the mark was pushed by a call of this turn: it
    is set aside and pushed back, so calls and timers queued during a
    turn run next turn, as when the due timers were taken first.  So
    equal deadlines fire in scheduling order, by rule, and a callback
    that raises leaves :meth:`run` at once.  A wake timer landing on a
    set flag only counts off ``in_flight`` (nobody is parked).

    The loop clock is the attribute :attr:`now`, in round units from
    ``0.0``, and it moves only between calls: every call of one turn
    reads the same instant.  Waiting is ``now += when - now``, so a run
    never consults the OS and is a pure function of its inputs.
    """

    def __init__(self) -> None:
        self._ready: Deque[Sequence[Any]] = deque()
        #: The timer heap and its scheduling counter; the driver's
        #: actors push sleeps and wake landings onto it as ``call_at`` does.
        self._timers: List[_Timer] = []
        self._seq = 0
        self._stopping = False
        #: The loop clock, in round units.
        self.now = 0.0
        self.transport: Optional[AsyncTransport] = None  # set by the transport

    def call_soon(self, fn: Callable, arg: Any) -> None:
        """Queue ``fn(arg)`` behind everything already ready."""
        self._ready.append((fn, arg))

    def call_at(self, when: float, fn: Callable, arg: Any) -> None:
        """Schedule ``fn(arg)`` at loop time ``when``."""
        self._seq += 1
        heappush(self._timers, _Timer((when, self._seq, fn, arg)))

    def stop(self) -> None:
        """Make :meth:`run` return once the current turn is over."""
        self._stopping = True

    def run(self) -> None:
        """Take turns until stopped (or until nothing is left to run)."""
        ready, timers = self._ready, self._timers
        popleft = ready.popleft
        transport = self.transport
        land, woken = (transport.land, transport.woken) if transport else (None, None)
        while not self._stopping:
            due = -1.0
            if timers:
                if not ready:
                    delay = timers[0][0] - self.now
                    if delay > 0:
                        self.now += delay
                due = self.now + CLOCK_RESOLUTION
            elif not ready:
                return
            mark = self._seq
            if ready:
                for _ in range(len(ready)):
                    fn, arg = popleft()
                    fn(arg)
            later = None
            while timers and timers[0][0] < due:
                timer = heappop(timers)
                if timer[1] > mark:
                    # Pushed by a call of this turn: it runs next turn.
                    later = [timer] if later is None else [*later, timer]
                    continue
                fn = timer[2]
                if fn is land and woken[timer[3]]:
                    # A task parks only on a clear flag: nobody to resume.
                    transport.in_flight -= 1
                else:
                    fn(timer[3])
            if later is not None:
                for timer in later:
                    heappush(timers, timer)


def derive_async_seed(seed: int, delay_spec: Any) -> int:
    """The driver RNG seed: a pure function of (run seed, delay spec).

    Mirrors :func:`repro.faults.injector.derive_injector_seed`: latency
    randomness must never touch the host's schedule RNG, and a replay
    must redraw the identical latency stream.
    """
    blob = f"async:{seed}:{delay_spec!r}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


#: The ack/retransmit resilience layer's backoff: when the fault plan
#: drops a wake, the sender probes up to ``RETRY_BUDGET`` optimistic
#: retransmissions — the first ``RETRY_BASE`` round units out, each gap
#: ``RETRY_FACTOR`` times the last and stretched by up to
#: ``RETRY_JITTER`` of itself — before the *unconditional* fair-lossy
#: landing at the lossy window's close (never part of the budget).
RETRY_BASE = 0.5
RETRY_FACTOR = 2.0
RETRY_JITTER = 0.25
RETRY_BUDGET = 3


def _retry_offsets(rng: random.Random) -> List[float]:
    """Cumulative backoff offsets (round units) of each retry.

    Draws one ``rng.random()`` per retry from the driver's private RNG,
    so the ladder is byte-deterministic.
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
        #: :meth:`_land` bound once, so the loop knows a wake timer by it.
        self.land = self._land
        loop.transport = self
        #: Per key, whether a wake has arrived that no wait has consumed.
        self.woken: Dict[Key, bool] = dict.fromkeys(keys, False)
        #: Per parked key, its task: only a wake resumes it.
        self._parked: Dict[Key, Task] = {}
        #: Wakes scheduled but not yet landed — nonzero means the system
        #: is *not* quiescent no matter how idle it looks.
        self.in_flight = 0
        #: Resilience-layer accounting (see :meth:`AsyncDriver._retry_at`):
        #: retransmissions scheduled and lost when a dropped wake is sent,
        #: acks (its landing) and the backstops a landed retry made
        #: unnecessary when it lands.
        self.stats: Dict[str, int] = {
            "retries_scheduled": 0,
            "retries_lost": 0,
            "acked": 0,
            "retries_cancelled": 0,
        }

    def step(self, task: Task) -> None:
        """Resume ``task`` until it suspends again (or retires): a sleep's
        end calls this straight from its timer, a wake resumes a parked
        task through the ready queue.  A park arms no timer, and a task
        that yields ``None`` has pushed its own wake-up timer."""
        request = next(task, None)
        if type(request) is tuple:
            self._parked[request[0]] = task
        elif request is not None:
            loop = self._loop
            loop.call_at(loop.now + request, self.step, task)

    def deliver_now(self, key: Key) -> None:
        """Zero-latency wake (local events: injection, detector ticks):
        it lands at once."""
        if key in self.woken:
            self.in_flight += 1
            self._land(key)

    def _ack(self, key: Key) -> None:
        """A dropped wake lands at the fair-lossy backstop: the ack."""
        self.stats["acked"] += 1
        self._land(key)

    def _ack_retry(self, key: Key) -> None:
        """A dropped wake lands on a retransmission: the ack, and the
        backstop it made unnecessary."""
        self.stats["retries_cancelled"] += 1
        self._ack(key)

    def _land(self, key: Key) -> None:
        """A wake counted in :attr:`in_flight` lands — a timer's, an ack
        or :meth:`deliver_now`'s: a parked task resumes on the loop's next
        turn, any other finds the flag at its next :meth:`wait`."""
        self.in_flight -= 1
        self.woken[key] = True
        parked = self._parked
        if key in parked:
            task = parked[key]
            del parked[key]
            self._loop.call_soon(self.step, task)

    def wait(self, key: Key) -> Task:
        """Park on ``key``'s channel until a wake lands; a wake that
        already arrived is consumed without suspending.  No timer backs
        the park: a wake that never lands is the supervisor's error
        (:meth:`AsyncDriver._supervise`), not a timeout's to hide."""
        if not self.woken[key]:
            yield (key,)
        self.woken[key] = False


class AsyncDriver:
    """Drive a :class:`repro.core.engine.MulticastSystem` under asynchrony.

    Args:
        system: the engine deployment to drive.  The driver drives the
            system's :class:`repro.runtime.scheduler.Scheduler` (actors,
            eligibility, responders, settle horizon, failure pattern)
            and installs itself as the wake listener of the system's
            ``sink`` for the duration of :meth:`run`.
        delay_model: a :class:`DelayModel`, a delay spec tuple, or
            ``None`` for the default (see :mod:`repro.runtime.delay`).
        seed: scenario seed; the driver derives its private latency RNG
            from ``(seed, delay spec)``.
    """

    def __init__(
        self,
        system: Any,
        *,
        delay_model: Any = None,
        seed: int = 0,
    ) -> None:
        self.system = system
        self._sched = system._scheduler
        self.injector = system.injector
        self.delay: DelayModel = (
            delay_model
            if isinstance(delay_model, DelayModel)
            else build_delay_model(delay_model)
        )
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
        self._fired_window = self._total_fired = 0
        #: Per actor key, its task.
        self._tasks: Dict[Key, Task] = {}
        #: Per reader a quiet fire woke, in first-wake order, the least
        #: uniform draw its wakes spent (``_on_wake``); ``_actor`` maps
        #: it through the quantile and pushes one timer per entry when
        #: the fire returns.
        self._least_draw: Dict[Key, float] = {}
        #: The same for a faulted fire, holding the earliest landing.
        self._landings: Dict[Key, float] = {}
        #: The logical time from which the fault plan can no longer
        #: perturb a wake (0 without a plan).
        self._links_quiet_from = (
            self.injector.links_quiet_from if self.injector is not None else 0
        )
        self._quiescent = self._stopped = False

    # -- Time --------------------------------------------------------------

    def now_t(self) -> Time:
        """Logical time: the round the loop clock is in, from 1."""
        return int(self._loop.now + CLOCK_RESOLUTION) + 1

    def _sync_time(self, t: Time) -> None:
        """Push logical time into the host's scheduler clock (monotone:
        ``now_t`` never decreases and equal pushes are no-ops)."""
        if t > self._sched.time:
            self._sched.time = t

    # -- Wake plumbing -----------------------------------------------------

    def _on_wake(self, woken: Any) -> None:
        """The host dirtied ``woken`` readers: route wakes through the
        channels.  Called synchronously from inside a fire (writer known)
        or from driver-level events like send injection (writer None).

        A writer's wake to each other reader spends one draw of the
        driver's RNG.  A fire is *quiet* once the fault plan can no longer
        perturb a wake (no plan, or from the injector's
        ``links_quiet_from`` on): then a wake only lowers the reader's
        entry in :attr:`_least_draw`, and ``_actor`` maps the least draw
        through the model's quantile once.  Every quantile is
        nondecreasing, so that is the first of the landings the draws
        name, bit for bit.  On a faulted fire each wake draws its
        latency and takes the plan's verdict: a dropped wake gets its own
        retry or ack timer at once, any other lowers the reader's entry
        in :attr:`_landings`.  Either way the reader's next step reads
        every write of the fire, whichever wake brought it there, so the
        fire lands one wake per reader, at the first of its landings
        (``_actor`` pushes the timers).
        """
        transport = self._transport
        if transport is None:
            return
        src = self._current
        if src is None:
            for dst in woken:
                transport.deliver_now(dst)
            return
        loop = self._loop
        now = loop.now
        t = int(now + CLOCK_RESOLUTION) + 1
        if t >= self._links_quiet_from:
            least, draw = self._least_draw, self.rng.random
            draws = self.delay.draws
            for dst in woken:
                if dst == src:
                    # The writer re-checks itself on its next loop turn.
                    continue
                u = draw() if draws else 0.0
                if dst not in least or u < least[dst]:
                    least[dst] = u
            return
        injector, rng, s = self.injector, self.rng, src.index
        latency_of, landings = self.delay.latency, self._landings
        for dst in woken:
            if dst == src:
                continue
            latency = latency_of(s, dst.index, rng)
            verdict = injector.on_send(s, dst.index, t)
            if verdict.dropped:
                transport.in_flight += 1
                loop.call_at(*self._retry_at(src, dst, t, verdict, latency), dst)
                continue
            latency += float(verdict.delay)
            # Duplicated wakes would be harmless no-ops on an event
            # channel; the verdict's copies need no realization.
            when = now + (latency if latency > 0.0 else 0.0)
            if dst not in landings or when < landings[dst]:
                landings[dst] = when

    def _retry_at(
        self,
        src: Key,
        dst: Key,
        t: Time,
        verdict: Any,
        latency: float,
    ) -> Tuple[float, Callable[[Key], None]]:
        """The landing instant (loop time) of one dropped wake, and the
        transport callback that acks it there.

        The wake lands on the first bounded backoff retransmission whose
        probe time faces a *clear* channel
        (:meth:`repro.faults.injector.FaultInjector.link_clear` — attempts
        inside the lossy window are lost) and comes before the
        unconditional fair-lossy landing at the window close; otherwise
        on that backstop.  So with a clear early retry the wake lands
        *before* the heal-time backstop — graceful degradation the round
        hosts cannot express.  All ``RETRY_BUDGET`` offsets are drawn
        either way, so the latency stream does not depend on the verdict.
        """
        stats = self._transport.stats
        now = self._loop.now
        final = now + (max(float(verdict.retransmit_at - t), 1.0) + latency)
        for offset in _retry_offsets(self.rng):
            when = now + (1.0 + offset + latency)
            if when >= final:
                break
            probe_t = t + 1 + int(offset)
            if self.injector.link_clear(src.index, dst.index, probe_t):
                stats["retries_scheduled"] += 1
                return when, self._transport._ack_retry
            stats["retries_lost"] += 1
        return final, self._transport._ack

    # -- Tasks -------------------------------------------------------------

    def _actor(self, key: Key) -> Task:
        """One actor's task.  A fire is followed by one ``land`` timer
        per reader it woke (:attr:`_least_draw` or :attr:`_landings`, in
        first-wake order), then every sleep pushes its own wake-up timer
        (both :meth:`EventLoop.call_at`, inlined) and yields ``None``;
        only parks go through :meth:`AsyncTransport.step`.

        Inside the settle window a task turns on every pacing sleep; it
        fires unless it is parked under the epoch of the scheduler's
        ``scan_instants`` and the responders of its last fire, the async
        twin of the round's full scans.  Past the window it fires when
        unparked, or once if its last fire came before a scan instant,
        and otherwise waits for a wake."""
        sched = self._sched
        pattern = sched.pattern
        # The pattern is frozen: before its crash instant the actor is up.
        crash = pattern.crash_times.get(key)
        actor = sched.actors[key]
        parked = sched.proven_parked
        transport = self._transport
        loop, timers, step = self._loop, self._loop._timers, transport.step
        land = transport.land
        task = self._tasks[key]
        injector = self.injector
        churn_quiet = injector.churn_quiet_from if injector is not None else 0
        latency_of, rng, i = self.delay.latency, self.rng, key.index
        quantile = self.delay.quantile
        # The epoch of the scan instants and the responders the task last
        # fired under.  Every instant is at most the settle horizon, so
        # past it the epoch is ``final``.
        instants = sched.scan_instants
        final = len(instants)
        fired_epoch, fired_for = -1, None
        while not self._stopped:
            now = loop.now
            t = int(now + CLOCK_RESOLUTION) + 1
            if crash is not None and t >= crash and not pattern.is_alive(key, t):
                rejoin = pattern.recovery_times.get(key)
                if rejoin is None or rejoin <= t:
                    return  # crash-stop: the task retires
                # Crash-recovery: park until the rejoin instant.  The
                # actor's in-memory state stands in for the durable
                # substrate snapshot (the kernel backend exercises the
                # explicit snapshot/restore path).
                sleep = max(rejoin - 1 - now, 1.0)
            elif t < churn_quiet and injector.suppresses(key, t):
                # Participation churn: sleep through the window.
                sleep = 1.0
            else:
                if t <= sched.settle_horizon:
                    # The responders too: the supervisor's tick may run at
                    # this very loop time, before or after this turn.
                    epoch, responders = bisect_right(instants, t), sched.responders
                    fire = (
                        key not in parked
                        or epoch != fired_epoch
                        or responders is not fired_for
                    )
                    fired_epoch, fired_for = epoch, responders
                elif key in parked and fired_epoch == final:
                    yield from transport.wait(key)
                    continue
                else:
                    # Past the window a parked task whose last fire came
                    # before a scan instant fires once more: a pacing
                    # sleep may span the window's end.
                    fire, fired_epoch = True, final
                if fire:
                    if t > sched.time:
                        sched.time = t
                    self._current = key
                    try:
                        fired = actor.fire(t, None, None)
                    finally:
                        self._current = None
                    least = self._least_draw
                    if least:
                        self._least_draw = {}
                        for dst in least:
                            transport.in_flight += 1
                            loop._seq = seq = loop._seq + 1
                            when = now + quantile(i, dst.index, least[dst])
                            heappush(timers, _Timer((when, seq, land, dst)))
                    landings = self._landings
                    if landings:
                        self._landings = {}
                        for dst in landings:
                            transport.in_flight += 1
                            loop._seq = seq = loop._seq + 1
                            heappush(timers, _Timer((landings[dst], seq, land, dst)))
                    self._fired_window += fired
                    self._total_fired += fired
                pace = latency_of(i, i, rng)
                sleep = pace if pace > MIN_PACE else MIN_PACE
            loop._seq = seq = loop._seq + 1
            heappush(timers, _Timer((now + sleep, seq, step, task)))
            yield None

    def _inject(
        self,
        pending: Sequence[Any],
        issue: Optional[Callable[[Any, Time], None]],
    ) -> Task:
        """Issue each scripted send at the logical time the round driver
        would have: ``t == at_round`` (clamped to the async clock's
        t >= 1), so alive-at-issue races agree across backends."""
        loop = self._loop
        for send in pending:
            remaining = max(send.at_round - 1, 0) - loop.now
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
        sched = self._sched
        transport = self._transport
        # The tasks parked on their channels, and who the host holds parked.
        channel_parked, proven = transport._parked, sched.proven_parked
        idle = 0
        while True:
            yield 1.0
            t = self.now_t()
            self._sync_time(t)
            eligible = sched.eligible_order(t)
            sched.refresh_responders(t, tuple(eligible), None)
            if transport.in_flight == 0:
                # Every wake has landed, so a task still parked on its
                # channel must still be parked in the host: one a write
                # unparked lost the wake that would have resumed it.
                for key in channel_parked:
                    if key not in proven:
                        raise SimulationError(
                            f"lost wake: {key} is parked on its channel at "
                            f"t={t}, unparked in the host, and no wake is "
                            "in flight"
                        )
            # Forced wakes through the settle window.  It covers every
            # crash and rejoin instant (each ``Omega_g`` stabilizes no
            # earlier than its members' last one), so quorum availability
            # changes inside it.  Until a task consumes its flag
            # ``_all_parked`` reads it as busy, so the flags time the
            # quiescence round.
            if t <= sched.settle_horizon + 1:
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
                or t < sched.settle_horizon
                or sched.has_pending_work()
            )
            if not busy and self._all_parked(eligible):
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

    def _all_parked(self, eligible: Sequence[Key]) -> bool:
        woken, parked = self._transport.woken, self._sched.proven_parked
        # An unconsumed wake counts as not parked: someone will act.
        return not any(woken[key] or key not in parked for key in eligible)

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
        keys = self._sched.sorted_keys
        loop = self._loop = EventLoop()
        transport = self._transport = AsyncTransport(loop, keys)
        self._stopped = self._quiescent = False
        self._fired_window = self._total_fired = self.sends_cursor = 0
        self._tasks = {key: self._actor(key) for key in keys}
        self._least_draw, self._landings = {}, {}
        self.system.sink.wake_listener = self._on_wake
        # The injection task is queued first: the loop starts tasks in
        # queueing order, so sends due at the clock's first instant are
        # issued before any actor fires — as the round loop does.
        for task in (
            self._inject(pending, issue),
            *self._tasks.values(),
            self._supervise(pending, max_rounds, quiescent_rounds, watchdog),
        ):
            loop.call_soon(transport.step, task)
        try:
            # A raising fire, ``issue`` or watchdog leaves from where it is.
            loop.run()
            final_t = min(self.now_t(), max_rounds)
        finally:
            self.last_transport_stats = dict(transport.stats)
            self._tasks = {}
            self.system.sink.wake_listener = None
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
    "EventLoop",
    "derive_async_seed",
]
