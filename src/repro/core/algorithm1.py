"""Algorithm 1: genuine (group-sequential) atomic multicast from ``mu``.

This module is a line-by-line executable rendering of Algorithm 1 (§4.3).
Each process runs an *action system*: an action executes once its
preconditions hold, and its effects apply atomically (the engine in
:mod:`repro.core.engine` serializes actions, which realizes the
linearization the paper reasons on in §4.4).

Mapping to the pseudo-code:

=================  ====================================================
paper              here
=================  ====================================================
lines 5–7          :meth:`Algorithm1Process.multicast`,
                   :meth:`Algorithm1Process._push` (line 7)
lines 8–15         :meth:`Algorithm1Process._try_pending`
lines 16–24        :meth:`Algorithm1Process._try_commit`
lines 25–29        :meth:`Algorithm1Process._try_stabilize`
lines 30–33        :meth:`Algorithm1Process._try_stable`
lines 34–37        :meth:`Algorithm1Process._try_deliver`
=================  ====================================================

Every precondition opens with ``PHASE[m] = …`` (lines 9/17/26/31/35), so
:meth:`Algorithm1Process.try_actions` reads ``PHASE[m]`` once and runs only
the action that phase enables; the methods above hold the *remaining*
preconditions and the effects.  The objects they touch — ``LOG_g`` and the
``LOG_{g∩h}`` of lines 13/22/27/36 — depend on ``dst(m)`` and ``G(p)``
alone, and are resolved once per destination group into a :class:`_Route`,
together with ``gamma(g)``'s timeline and the quorum :data:`Guard` of each
operation.  A route holds each shared log: a mutation is charged, a read
is free, so the actions read its state in place.
Before an operation an action asks the engine's guard memo once, with the
route's guards (:meth:`repro.core.engine.MulticastSystem.blocked`).

The *strict* variation of §6.1 changes only the ``stable`` precondition:
a process waits, for every intersecting group ``h``, for either the
stabilization record ``(m, h)`` or the indicator ``1^{g∩h}`` — supply
``variant="strict"`` together with indicator oracles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.detectors.base import Timeline
from repro.detectors.indicator import IndicatorOracle
from repro.detectors.mu import Mu
from repro.core.phases import COMMIT, DELIVER, PENDING, STABLE, START, Phase
from repro.groups.topology import Group, GroupTopology
from repro.metrics.trace import (
    TraceRecorder,
    WAIT_CONSENSUS,
    WAIT_GAMMA,
    WAIT_INDICATOR,
    WAIT_ORDER,
    WAIT_QUORUM,
)
from repro.model.errors import SimulationError
from repro.model.messages import MessageId, MulticastMessage
from repro.model.processes import ProcessId, ProcessSet
from repro.objects.space import IntersectionLogHandle, LogHandle, ObjectSpace

#: Upcall invoked on delivery: (process, message).
DeliverFn = Callable[[ProcessId, MulticastMessage], None]

#: One object's quorum precondition for an operation (§4.3),
#: ``(scope, reason, ilog, gate)``: a ``Sigma`` quorum of ``scope``
#: responds.  For ``LOG_{g∩h}`` (``ilog``) an operation off Proposition
#: 47's fast path also needs a quorum of the log's slow scope; for
#: ``CONS_{m,f}`` hosted by the group ``gate``, the group's ``Omega`` must
#: also have stabilized.  ``reason`` is the wait reason when it fails.
#: A plain tuple, so building and unpacking one makes no call.
Guard = Tuple[ProcessSet, str, Optional[IntersectionLogHandle], Optional[Group]]

#: The guard of one operation: (caller, guards, signature) -> the wait
#: reason of the first failing guard, or ``None`` when all hold
#: (:meth:`repro.core.engine.MulticastSystem.blocked`).
BlockedFn = Callable[
    [ProcessId, Tuple[Guard, ...], Optional[Tuple[Any, ...]]], Optional[str]
]

#: Supported algorithm variants.
VARIANTS = ("vanilla", "strict")


class _Route:
    """What the actions on a message addressed to ``g`` touch at one process.

    Attributes:
        g: the destination group ``dst(m)``.
        member: whether this process belongs to ``g``; the other fields
            are only resolved when it does.
        log: ``LOG_g``.
        carried: ``((h, LOG_{g∩h}), …)`` over the ``h ∈ G(p)`` with
            ``g ∩ h ≠ ∅`` (lines 13/22/27/36), ``g`` itself included.
        gamma: ``gamma(g)``'s timeline (:meth:`Mu.gamma_timeline`).
        quorum: the guards of one ``LOG_g`` mutation (lines 7 and 29).
        pending: the guards of line 13's appends: ``LOG_g``, then each
            carried log.
        commit: the guards of lines 21–23: ``CONS_{m,f}``, hosted by
            ``g``, then each carried log.
    """

    __slots__ = (
        "g", "member", "log", "carried", "gamma", "quorum", "pending", "commit"
    )

    def __init__(
        self,
        g: Group,
        member: bool,
        log: Optional[LogHandle] = None,
        carried: Tuple[Tuple[Group, LogHandle], ...] = (),
        gamma: Optional[Timeline] = None,
    ) -> None:
        self.g = g
        self.member = member
        self.log = log
        self.carried = carried
        self.gamma = gamma
        self.quorum: Tuple[Guard, ...] = ()
        self.pending: Tuple[Guard, ...] = ()
        self.commit: Tuple[Guard, ...] = ()
        if log is not None:
            self.quorum = ((log.carriers, WAIT_QUORUM, None, None),)
            # ``carried`` holds LOG_g itself (``g ∩ g``): no classification.
            carriers = tuple(
                [
                    (ilog.carriers, WAIT_QUORUM, None if ilog is log else ilog, None)
                    for _h, ilog in carried
                ]
            )
            self.pending = self.quorum + carriers
            self.commit = ((g.members, WAIT_CONSENSUS, None, g), *carriers)


class Algorithm1Process:
    """The code of Algorithm 1 at one process.

    Attributes:
        pid: this process.
        topology: the destination groups ``G``.
        space: the shared-object space (logs and consensus objects).
        mu: the candidate failure detector (strict mode additionally uses
            the ``indicators`` mapping).
        variant: ``"vanilla"`` (§4) or ``"strict"`` (§6.1).
    """

    def __init__(
        self,
        pid: ProcessId,
        topology: GroupTopology,
        space: ObjectSpace,
        mu: Mu,
        on_deliver: DeliverFn,
        blocked: BlockedFn,
        stats: TraceRecorder,
        variant: str = "vanilla",
        indicators: Optional[Dict[FrozenSet[ProcessId], IndicatorOracle]] = None,
    ) -> None:
        if variant not in VARIANTS:
            raise SimulationError(f"unknown variant {variant!r}")
        if variant == "strict" and indicators is None:
            raise SimulationError("strict variant needs indicator detectors")
        self.pid = pid
        self.topology = topology
        self.space = space
        self.mu = mu
        self.variant = variant
        self.indicators = indicators or {}
        self._on_deliver = on_deliver
        self.my_groups: Tuple[Group, ...] = topology.groups_of(pid)
        #: PHASE[m], keyed by message id; absent = start (line 4).
        self.phase: Dict[MessageId, Phase] = {}
        #: Messages known locally, keyed by id.
        self.known: Dict[MessageId, MulticastMessage] = {}
        #: (message, group name) pairs already stabilized by this process
        #: (a name hashes in C; ``Group.__hash__`` is a Python call).
        self._stabilized: Set[Tuple[MessageId, str]] = set()
        #: Locally requested multicasts whose line-7 append is still
        #: waiting for a quorum (retried by the action scan, :meth:`_push`).
        self._to_multicast: Set[MessageId] = set()
        #: Per-destination-group consensus family, memoized (line 20).
        self._family_keys: Dict[Group, FrozenSet[str]] = {}
        #: The scan order: known message ids not in ``_done``, sorted —
        #: ``_learn`` inserts, a scan that retired ids filters them once.
        self._scan_order: List[MessageId] = []
        #: Message ids the scan can never act on again: delivered here,
        #: or addressed to a group this process is not a member of.
        self._done: Set[MessageId] = set()
        #: Per group of this process, ``[arrivals, seen]``: its log's
        #: live ``arrivals`` list (append-only) and how many of them
        #: ``discover()`` has learned already.
        self._feeds: List[List[Any]] = [
            [space.group_log(g).arrivals, 0] for g in self.my_groups
        ]
        #: Per (log, threshold), how many leading messages of the log
        #: were seen at that phase or beyond (see :meth:`_order_clear`).
        self._order_cursors: Dict[Tuple[LogHandle, Phase], int] = {}
        #: Per message id, the ids whose order wait stopped at it during
        #: the current scan (see :meth:`_order_clear`); a new scan starts
        #: with none.
        self._waiters: Dict[MessageId, List[MessageId]] = {}
        #: The route of each destination group seen so far, keyed by
        #: ``dst(m)`` (``my_groups`` and the intersection structure never
        #: change, and the space hands out one handle per object).
        self._routes: Dict[FrozenSet[ProcessId], _Route] = {}
        #: Instrumentation sink (detector-query counters).
        self.stats = stats
        #: The quorum guard of an operation: the engine's memo
        #: (:meth:`repro.core.engine.MulticastSystem.blocked`).
        self._blocked = blocked
        #: Why the last action scan ended blocked: a subset of the
        #: ``WAIT_*`` reasons of :mod:`repro.metrics.trace`, empty when
        #: the process is simply idle.  A scan that fired actions may
        #: leave reasons too (a wait it later cleared); the scheduler and
        #: the trace exporter read it only after a scan that fired nothing.
        self.wait_reasons: Set[str] = set()

    # -- Phase bookkeeping ---------------------------------------------------

    def _learn(self, message: MulticastMessage) -> None:
        if message.mid not in self.known:
            self.known[message.mid] = message
            insort(self._scan_order, message.mid)

    def _order_clear(
        self, log: LogHandle, m: MulticastMessage, threshold: Phase
    ) -> bool:
        """The wait of lines 10/28/36: ``∀m' <_L m. PHASE[m'] ≥ threshold``.

        ``PHASE`` only grows and the settled prefix of a log never
        reorders, so a leading entry found at ``threshold`` stays there:
        the cursor of ``(log, threshold)`` counts those entries and never
        moves back.  It advances only inside the settled prefix; the
        entries between that prefix and ``m`` can still move, and are
        checked afresh on every call.

        When the wait fails, ``m`` waits on the first entry below
        ``threshold``: it joins that entry's list in ``_waiters``, and the
        scan revisits it once the entry's phase rises.
        """
        order = log.order
        rank = bisect_left(order, (log.positions[m], m))  # LogHandle.rank
        key = (log, threshold)
        cursor = self._order_cursors.get(key, 0)
        if rank <= cursor:
            return True
        phase = self.phase
        settled = log.settled
        if settled > rank:
            settled = rank
        while cursor < settled and phase.get(order[cursor][1].mid, START) >= threshold:
            cursor += 1
        self._order_cursors[key] = cursor
        if cursor == settled:
            for cursor in range(settled, rank):
                if phase.get(order[cursor][1].mid, START) < threshold:
                    break
            else:
                return True
        blocker = order[cursor][1].mid
        waiters = self._waiters
        if blocker not in waiters:
            waiters[blocker] = [m.mid]
        elif m.mid not in waiters[blocker]:  # two logs, or a revisit
            waiters[blocker] += (m.mid,)
        return False

    # -- Shared-object accessors ----------------------------------------------

    def _log(self, g: Group) -> LogHandle:
        return self.space.group_log(g)

    def _ilog(self, g: Group, h: Group) -> LogHandle:
        return self.space.intersection_log(g, h)

    def _destination_group(self, message: MulticastMessage) -> Group:
        g = self.topology.group_with_members(message.dst)
        if g is None:
            raise SimulationError(
                f"message {message!r} addressed to a group outside G"
            )
        return g

    def _targets(self, g: Group) -> Tuple[Group, ...]:
        """Lines 13/22: the local groups whose logs carry ``m``."""
        return tuple(h for h in self.my_groups if h == g or g.intersects(h))

    def _route(self, message: MulticastMessage) -> _Route:
        """The route of ``dst(m)``, resolved on its first message."""
        route = self._routes.get(message.dst)
        if route is None:
            g = self._destination_group(message)
            if self.pid in g:
                carried = tuple((h, self._ilog(g, h)) for h in self._targets(g))
                route = _Route(
                    g, True, self._log(g), carried, self.mu.gamma_timeline(g)
                )
            else:
                route = _Route(g, False)
            self._routes[message.dst] = route
        return route

    # -- multicast(m), lines 5-7 ---------------------------------------------

    def multicast(self, message: MulticastMessage) -> bool:
        """Append ``m`` to the log of its destination group; return
        whether this call appended it (:meth:`_push`).

        The caller must be a member of the destination group (closed
        dissemination) and the workload must be group-sequential — the
        vanilla interface in :mod:`repro.core.group_sequential` enforces
        both.
        """
        route = self._route(message)
        if not route.member:
            raise SimulationError(f"{self.pid} is not in {route.g.name}")
        self._learn(message)
        return self._push(message, route)

    def _push(self, message: MulticastMessage, route: _Route) -> bool:
        """Line 7 — pre ``PHASE[m] = start`` and ``m ∉ LOG_g``, eff
        ``LOG_g.append(m)`` — the one body of :meth:`multicast` and of
        the scan's retry; returns whether it fired.  A message another
        member already appended is not appended again (the append would
        charge every carrier of ``g`` for nothing).  An append whose
        quorum does not answer yet waits in ``_to_multicast``."""
        if (
            self.phase.get(message.mid, START) != START
            or message in route.log.positions
        ):
            return False
        if self._blocked(self.pid, route.quorum, None) is not None:
            self._to_multicast.add(message.mid)
            self.wait_reasons.add(WAIT_QUORUM)
            return False
        route.log.append(self.pid, message)
        return True

    # -- The action scan -------------------------------------------------------

    def discover(self) -> None:
        """Learn messages appearing in the logs of this process's groups.

        Each group log lists its messages in arrival order, so only the
        ones appended since the previous scan are read.
        """
        for feed in self._feeds:
            arrivals, seen = feed
            if seen < len(arrivals):
                for message in arrivals[seen:]:
                    self._learn(message)
                feed[1] = len(arrivals)

    def try_actions(self, t: int, budget: Optional[int] = None) -> int:
        """Run every enabled action, to a fixpoint; return how many fired.

        ``budget`` caps the number of actions fired in this scan (finer
        interleaving for latency measurements); ``None`` = fire all.

        Per message the scan reads ``PHASE[m]`` once and tries the one
        action that phase enables, then the next for as long as each
        fires: ``pending → commit → stabilize* → stable → deliver``.
        Trying all five on every visit
        (``tests/core/_oracle.py::five_tests_scan``) fires the same
        actions — the four whose phase test fails return before any
        effect.

        The scan visits the known ids in order, and revisits an id whose
        order wait (lines 10/28/36) stopped at an entry whose phase a
        later visit raised: :meth:`_order_clear` files the waiter under
        that entry, and the visit that raises its phase pushes the entry's
        waiters onto a stack the scan drains before it moves on.  Only a
        rising ``PHASE`` clears an order wait (a commit's ``bumpAndLock``
        moves only the message it commits), so an unbudgeted scan ends at
        its own fixpoint: a second scan at the same instant fires nothing.
        """
        self.discover()
        self.wait_reasons = set()
        self._waiters = waiters = {}
        fired = 0
        known = self.known
        phases = self.phase
        routes = self._routes
        for mid in sorted(self._to_multicast) if self._to_multicast else ():
            if budget is not None and fired >= budget:
                return fired
            self._to_multicast.discard(mid)  # _push puts it back if blocked
            message = known[mid]
            route = routes.get(message.dst) or self._route(message)
            if self._push(message, route):
                fired += 1
        done = self._done
        retired = len(done)
        order = self._scan_order
        index, size = 0, len(order)
        requeued: List[MessageId] = []
        try:
            while True:
                if requeued:
                    mid = requeued.pop()
                elif index < size:
                    mid = order[index]
                    index += 1
                else:
                    return fired
                if budget is not None and fired >= budget:
                    return fired
                phase = was = phases.get(mid, START)
                if phase == DELIVER:
                    # Delivered messages satisfy no action precondition
                    # and report no wait reason — retire them.
                    done.add(mid)
                    continue
                message = known[mid]
                route = routes.get(message.dst) or self._route(message)
                if not route.member:
                    done.add(mid)  # never actionable at a non-member
                    continue
                if phase == START and self._try_pending(t, message, route):
                    fired += 1
                    if budget is not None and fired >= budget:
                        return fired
                    phase = PENDING
                if phase == PENDING and self._try_commit(t, message, route):
                    fired += 1
                    if budget is not None and fired >= budget:
                        return fired
                    phase = COMMIT
                if phase == COMMIT:
                    remaining = None if budget is None else budget - fired
                    fired += self._try_stabilize(t, message, route, remaining)
                    if budget is not None and fired >= budget:
                        return fired
                    if self._try_stable(t, message, route):
                        fired += 1
                        if budget is not None and fired >= budget:
                            return fired
                        phase = STABLE
                if phase == STABLE and self._try_deliver(t, message, route):
                    fired += 1
                    phase = DELIVER
                if phase != was and mid in waiters:
                    # In filing order: the stack pops its last entry first.
                    requeued += waiters[mid][::-1]
                    del waiters[mid]
        finally:
            if len(done) > retired:
                self._scan_order = [m for m in self._scan_order if m not in done]

    # -- pending(m), lines 8-15 -------------------------------------------------

    def _try_pending(self, t: int, m: MulticastMessage, route: _Route) -> bool:
        log_g = route.log
        if m not in log_g.positions:
            return False
        if not self._order_clear(log_g, m, COMMIT):
            self.wait_reasons.add(WAIT_ORDER)
            return False
        pid = self.pid
        reason = self._blocked(pid, route.pending, ("append", m))
        if reason is not None:
            self.wait_reasons.add(reason)
            return False  # wait for a quorum of LOG_g or of a carrier
        for h, ilog in route.carried:
            position = ilog.append(pid, m)
            log_g.append(pid, (m.mid, h.name, position))
        self.phase[m.mid] = PENDING
        return True

    # -- commit(m), lines 16-24 ---------------------------------------------------

    def _gamma_partners(self, t: int, g: Group) -> Tuple[Group, ...]:
        """``gamma(g)`` as observed by this process now (§3): the timeline
        bound in ``g``'s route, sampled at ``t``."""
        self.stats.gamma_queries += 1
        gamma = self._routes[g.members].gamma
        return gamma.values[bisect_right(gamma.instants, t)]  # Timeline.query

    def _consensus_family(self, g: Group) -> FrozenSet[str]:
        """Line 20: ``f = {h : ∃f' ∈ F(g). h ∈ f' ∧ g ∩ h ≠ ∅}``.

        Computed from ``F(g)`` — the families of the *group* — so every
        committer of ``(m, g)`` addresses the same ``CONS_{m,f}``
        instance.  Scoped to ``F(p)`` instead, a non-carrier member of
        ``g`` gets a different (possibly empty) key, i.e. a private
        consensus object whose decision can disagree with everyone
        else's ``k``, locking the message at inconsistent positions
        across the intersection logs (DESIGN.md §13, "Golden-versioning
        policy").
        """
        cached = self._family_keys.get(g)
        if cached is not None:
            return cached
        members: Set[str] = set()
        for family in self.topology.families_of_group(g):
            for h in family:
                if g.intersects(h):
                    members.add(h.name)
        key = frozenset(members)
        self._family_keys[g] = key
        return key

    def _try_commit(self, t: int, m: MulticastMessage, route: _Route) -> bool:
        g = route.g
        records = route.log.position_records_for(m.mid)
        for h in self._gamma_partners(t, g):  # line 18
            name = h.name
            for record in records:
                if record[1] == name:
                    break
            else:
                self.wait_reasons.add(WAIT_GAMMA)
                return False
        if not records:
            return False  # k undefined until some (m, h, i) exists
        k = 0  # line 19: the largest i of the (m, h, i) records
        for record in records:
            if record[2] > k:
                k = record[2]
        family_key = self._consensus_family(g)  # line 20
        cons = self.space.consensus(m.mid, family_key, g)
        pid = self.pid
        reason = self._blocked(pid, route.commit, ("bumpAndLock", m, k))
        if reason is not None:
            self.wait_reasons.add(reason)
            return False
        k = cons.propose(pid, k)  # line 21
        for _h, ilog in route.carried:  # lines 22-23
            ilog.bump_and_lock(pid, m, k)
        self.phase[m.mid] = COMMIT
        return True

    # -- stabilize(m, h), lines 25-29 -----------------------------------------------

    def _try_stabilize(
        self,
        t: int,
        m: MulticastMessage,
        route: _Route,
        max_fires: Optional[int] = None,
    ) -> int:
        fired = 0
        log_g = route.log
        for h, ilog in route.carried:  # line 27: h in G(p), g ∩ h ≠ ∅
            if max_fires is not None and fired >= max_fires:
                return fired
            if (m.mid, h.name) in self._stabilized:
                continue
            if m not in ilog.positions:
                continue
            if not self._order_clear(ilog, m, STABLE):
                self.wait_reasons.add(WAIT_ORDER)
                continue  # line 28
            if self._blocked(self.pid, route.quorum, None) is not None:
                self.wait_reasons.add(WAIT_QUORUM)
                continue
            log_g.append(self.pid, (m.mid, h.name))  # line 29
            self._stabilized.add((m.mid, h.name))
            fired += 1
        return fired

    # -- stable(m), lines 30-33 ---------------------------------------------------

    def _stable_precondition(
        self, t: int, m: MulticastMessage, route: _Route
    ) -> bool:
        g = route.g
        records = route.log.stabilization_records_for(m.mid)
        if self.variant == "strict":
            recorded = {r[1] for r in records}
            # §6.1: wait on every intersecting group, with the indicator
            # 1^{g∩h} as the escape hatch.
            for h in self.topology.groups:
                if h == g or not g.intersects(h):
                    continue
                if h.name in recorded:
                    continue
                indicator = self.indicators.get(g.intersection(h))
                if indicator is not None:
                    self.stats.indicator_queries += 1
                if indicator is None or not indicator.query(self.pid, t):
                    self.wait_reasons.add(WAIT_INDICATOR)
                    return False
            return True
        for h in self._gamma_partners(t, g):  # line 32
            name = h.name
            for record in records:
                if record[1] == name:
                    break
            else:
                self.wait_reasons.add(WAIT_GAMMA)
                return False
        return True

    def _try_stable(self, t: int, m: MulticastMessage, route: _Route) -> bool:
        if not self._stable_precondition(t, m, route):
            return False
        self.phase[m.mid] = STABLE  # line 33
        return True

    # -- deliver(m), lines 34-37 -----------------------------------------------------

    def _try_deliver(self, t: int, m: MulticastMessage, route: _Route) -> bool:
        for _h, ilog in route.carried:  # line 36, over the logs at p holding m
            if m not in ilog.positions:
                continue
            if not self._order_clear(ilog, m, DELIVER):
                self.wait_reasons.add(WAIT_ORDER)
                return False
        self.phase[m.mid] = DELIVER  # line 37
        self._on_deliver(self.pid, m)
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Algorithm1Process({self.pid.name}, {self.variant})"
