"""The quorum guard's ``Sigma`` sample as the engine used to compute it.

``MulticastSystem.quorum_ok`` asks ``mu``'s ``Sigma_scope`` oracle for
the quorum an operation needs.  Until it did, it derived the sample
from the failure pattern itself; that derivation is kept here verbatim
(as a function of the pattern, the scope and the time) as the reference
``test_quorum_guard.py`` compares the oracle against.  The two agree on
every crash-stop pattern.  Under the crash–recovery overlay this one
drops a temporarily-down *recovering* member, so two of its samples can
be disjoint — it is not a ``Sigma`` history there, which is why it left
``src/``.

So does the action scan.  ``Algorithm1Process.try_actions`` reads
``PHASE[m]`` once per message and runs only the action that phase
enables; until it did, it ran all five ``_try_*`` tests on every live id
and each test opened with its own ``PHASE[m]`` check.  That scan — loop
body and the five phase-guarded entry checks, verbatim, plus the
``budget`` check the deferred line-7 loop was missing — is
:func:`five_tests_scan`, the reference ``test_phase_dispatch.py`` runs
every scan against.  The guards delegate to the process's own action
bodies, so the two scans differ in the dispatch and in nothing else.

So does the wake path.  Every shared log binds its reader set when it is
created (``repro.objects.space.reader_set``); until it did, the engine
looked each written object's readers up by name in a *wake index* built
once per run, and woke everyone on a name it did not know.
:func:`wake_index` is that builder, verbatim; ``test_reader_sets.py``
checks every handle's reader set against its entry, in iteration order —
the order the async driver draws wake latencies in.

So does the quorum guard's call path.  Algorithm 1's actions ask the
engine's memo once per operation, with the guards their route binds
(``MulticastSystem.blocked``); until they did, every check was a call
chain at its site — ``MulticastSystem.quorum_ok`` on the log's carriers
(through the handle's ``mutation_available``, since deleted), then the
``Sigma`` query — and the intersection and consensus handles each kept
their own.  :func:`per_check_guards` binds those sites back: the line-7
retry loop of ``try_actions`` and the guards of ``_try_pending``,
``_try_commit`` and ``_try_stabilize``, over the retired handle bodies
:func:`ilog_quorum_ok` and :func:`cons_quorum_ok`.
``test_guard_memo.py`` runs cells under both.

Both scans above revisit, within one pass, the ids whose order wait
stopped at an entry whose phase a later visit raised, in the order
``Algorithm1Process.try_actions`` does (:func:`_worklist`), so each
differential compares scans that reach the same fixpoint.

So does the fire's accounting.  The Prop 1 helper
(``AtomicMulticast._reduction_actions``) counts only the pushes that
appended to ``LOG_g``, and an unbudgeted ``SharedObjectActor.fire``
parks its process whatever it fired, since the scan runs to its own
fixpoint.  Until it did, the helper counted every push it made, also one
where line 7 appended nothing, each such count bought the fire one more
scan, and a fire that fired anything left its process unparked.
:func:`idle_counting_everywhere` binds both back;
``test_scan_fixpoint.py`` shows that on the engine they change no
record, only the scans taken.

So does the settle horizon.  ``Scheduler`` derives it as one past the
last scan instant and the fault plan's horizon; until it did, the engine
handed it a hand formula: the pattern's last change plus the ``gamma``
and indicator lags, the latest ``Omega_g`` stabilization, the plan's
horizon and the last scan instant, plus one.  :func:`retired_settle_horizon`
is that formula, verbatim; ``test_settle_horizon.py`` shows that no
detector answer moves between the two.
"""

from __future__ import annotations

from functools import partial
from types import MethodType
from typing import Dict, FrozenSet, Set

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.core.phases import COMMIT, DELIVER, PENDING, STABLE, START
from repro.groups.topology import GroupTopology
from repro.metrics.trace import WAIT_CONSENSUS, WAIT_GAMMA, WAIT_ORDER, WAIT_QUORUM
from repro.objects.space import IntersectionLogHandle
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet
from repro.runtime.actors import SharedObjectActor


def handrolled_required(
    pattern: FailurePattern, scope: ProcessSet, t: Time
) -> Set[ProcessId]:
    """The alive members of ``scope`` at ``t`` (the full scope when the
    whole scope is doomed)."""
    alive_scope = {q for q in scope if pattern.is_alive(q, t)}
    if any(pattern.is_correct(q) for q in scope):
        required = alive_scope
    else:
        required = set(scope)
    return required


def _try_pending(self, t, m, g):
    if self.phase.get(m.mid, START) != START:
        return False
    return self._try_pending(t, m, self._route(m))


def _try_commit(self, t, m, g):
    if self.phase.get(m.mid, START) != PENDING:
        return False
    return self._try_commit(t, m, self._route(m))


def _try_stabilize(self, t, m, g, max_fires=None):
    if self.phase.get(m.mid, START) != COMMIT:
        return 0  # pre at line 26: PHASE[m] = commit
    return self._try_stabilize(t, m, self._route(m), max_fires)


def _try_stable(self, t, m, g):
    if self.phase.get(m.mid, START) != COMMIT:
        return False
    return self._try_stable(t, m, self._route(m))


def _try_deliver(self, t, m, g):
    if self.phase.get(m.mid, START) != STABLE:
        return False
    return self._try_deliver(t, m, self._route(m))


def five_tests_try_actions(self, t, budget=None):
    """One pass of ``self`` (an ``Algorithm1Process``) trying every
    action on every live id."""
    self.discover()
    self.wait_reasons = set()
    fired = 0
    for mid in sorted(self._to_multicast):
        if budget is not None and fired >= budget:
            return fired
        message = self.known[mid]
        if self.phase.get(message.mid, START) != START or message in self._log(
            self._destination_group(message)
        ):
            self._to_multicast.discard(mid)
            continue
        if self._blocked(self.pid, self._route(message).quorum, None) is None:
            self._log(self._destination_group(message)).append(
                self.pid, message
            )
            self._to_multicast.discard(mid)
            fired += 1
        else:
            self.wait_reasons.add(WAIT_QUORUM)
    done = self._done
    retired = len(done)
    try:
        for mid in _worklist(self):
            if budget is not None and fired >= budget:
                return fired
            message = self.known[mid]
            if self.phase.get(mid) == DELIVER:
                # Delivered messages satisfy no action precondition
                # and report no wait reason — retire them.
                done.add(mid)
                continue
            g = self._destination_group(message)
            if self.pid not in g:
                done.add(mid)  # never actionable at a non-member
                continue
            was = self.phase.get(message.mid, START)
            if _try_pending(self, t, message, g):
                fired += 1
            if budget is not None and fired >= budget:
                return fired
            if _try_commit(self, t, message, g):
                fired += 1
            if budget is not None and fired >= budget:
                return fired
            remaining = None if budget is None else budget - fired
            fired += _try_stabilize(self, t, message, g, remaining)
            if budget is not None and fired >= budget:
                return fired
            if _try_stable(self, t, message, g):
                fired += 1
            if budget is not None and fired >= budget:
                return fired
            if _try_deliver(self, t, message, g):
                fired += 1
            if self.phase.get(message.mid, START) != was:
                _requeue(self, mid)
        return fired
    finally:
        if len(done) > retired:
            self._scan_order = [m for m in self._scan_order if m not in done]


def _worklist(self):
    """The ids a scan of ``self`` visits: its scan order, and before each
    next id every id :func:`_requeue` pushed onto ``self._requeued``."""
    self._waiters = {}
    self._requeued = []
    for mid in list(self._scan_order):
        yield mid
        while self._requeued:
            yield self._requeued.pop()


def _requeue(self, mid):
    """Push the waiters ``_order_clear`` filed under ``mid`` (whose phase
    just rose), so that the first filed is revisited first."""
    self._requeued.extend(reversed(self._waiters.pop(mid, [])))


def five_tests_scan(process):
    """Route every scan of ``process`` (an ``Algorithm1Process``) through
    :func:`five_tests_try_actions`.  Returns ``process`` for chaining."""
    process.try_actions = MethodType(five_tests_try_actions, process)
    return process


def wake_index(topology: GroupTopology) -> Dict[str, FrozenSet[ProcessId]]:
    """Map each shared-object name to the processes that read it.

    ``LOG_g`` and the reduction list ``L_g`` are read by the members
    of ``g``; ``LOG_{g∩h}`` is read by the members of both groups.
    Consensus objects need no entry: their state is only consumed by
    the proposer within its own (already-fired) commit action.
    """
    index: Dict[str, Set[ProcessId]] = {}
    for g in topology.groups:
        index.setdefault(f"LOG_{g.name}", set()).update(g.members)
        index.setdefault(f"L_{g.name}", set()).update(g.members)
    for g, h in topology.intersecting_pairs():
        first, second = sorted((g, h), key=lambda x: x.name)
        readers = index.setdefault(
            f"LOG_{first.name}∩{second.name}", set()
        )
        readers.update(g.members)
        readers.update(h.members)
    return {name: frozenset(pids) for name, pids in index.items()}


def ilog_quorum_ok(system, handle, caller, *signature):
    """``IntersectionLogHandle.mutation_available``: quorum availability,
    classified per Proposition 47 — a fast-path operation needs a
    ``Sigma_{g∩h}`` quorum, a slow-path one also the slow scope's.  On a
    plain ``LogHandle`` (``LOG_g`` among a route's carried logs) the
    signature is ignored, as that handle's method ignored it."""
    if not system.quorum_ok(caller, handle.carriers):
        return False
    if (
        isinstance(handle, IntersectionLogHandle)
        and signature
        and not handle.would_be_fast(caller, tuple(signature))
    ):
        return system.quorum_ok(caller, handle.slow_scope())
    return True


def cons_quorum_ok(system, handle, caller):
    """``ConsensusHandle.mutation_available``: a quorum of the host group
    responds *and* the group's leader oracle has stabilized."""
    if not system.quorum_ok(caller, handle.host_group.members):
        return False
    return system.consensus_ok(caller, handle.host_group)


def per_check_try_actions(system, self, t, budget=None):
    """``Algorithm1Process.try_actions`` with the line-7 retry asking
    ``quorum_ok`` on ``LOG_g``'s carriers."""
    self.discover()
    self.wait_reasons = set()
    fired = 0
    pid = self.pid
    known = self.known
    phases = self.phase
    routes = self._routes
    for mid in sorted(self._to_multicast) if self._to_multicast else ():
        if budget is not None and fired >= budget:
            return fired
        message = known[mid]
        log_g = (routes.get(message.dst) or self._route(message)).log
        if phases.get(mid, START) != START or message in log_g.positions:
            self._to_multicast.discard(mid)
            continue
        if system.quorum_ok(pid, log_g.carriers):
            log_g.append(pid, message)
            self._to_multicast.discard(mid)
            fired += 1
        else:
            self.wait_reasons.add(WAIT_QUORUM)
    done = self._done
    retired = len(done)
    try:
        for mid in _worklist(self):
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
            if phase != was:
                _requeue(self, mid)
        return fired
    finally:
        if len(done) > retired:
            self._scan_order = [m for m in self._scan_order if m not in done]


def per_check_try_pending(system, self, t, m, route):
    log_g = route.log
    if m not in log_g.positions:
        return False
    if not self._order_clear(log_g, m, COMMIT):
        self.wait_reasons.add(WAIT_ORDER)
        return False
    pid = self.pid
    if not system.quorum_ok(pid, log_g.carriers):
        self.wait_reasons.add(WAIT_QUORUM)
        return False
    for _h, ilog in route.carried:
        if not ilog_quorum_ok(system, ilog, pid, "append", m):
            self.wait_reasons.add(WAIT_QUORUM)
            return False  # wait for a quorum of the carrier
    for h, ilog in route.carried:
        position = ilog.append(pid, m)
        log_g.append(pid, (m.mid, h.name, position))
    self.phase[m.mid] = PENDING
    return True


def per_check_try_commit(system, self, t, m, route):
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
    if not cons_quorum_ok(system, cons, pid):
        self.wait_reasons.add(WAIT_CONSENSUS)
        return False
    for _h, ilog in route.carried:
        if not ilog_quorum_ok(system, ilog, pid, "bumpAndLock", m, k):
            self.wait_reasons.add(WAIT_QUORUM)
            return False
    k = cons.propose(pid, k)  # line 21
    for _h, ilog in route.carried:  # lines 22-23
        ilog.bump_and_lock(pid, m, k)
    self.phase[m.mid] = COMMIT
    return True


def per_check_try_stabilize(system, self, t, m, route, max_fires=None):
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
        if not system.quorum_ok(self.pid, log_g.carriers):
            self.wait_reasons.add(WAIT_QUORUM)
            continue
        log_g.append(self.pid, (m.mid, h.name))  # line 29
        self._stabilized.add((m.mid, h.name))
        fired += 1
    return fired


def per_check_guards(system):
    """Bind the per-check guard sites on every process of ``system`` (a
    ``MulticastSystem``).  Returns ``system`` for chaining."""
    for process in system.processes.values():
        for name, body in (
            ("try_actions", per_check_try_actions),
            ("_try_pending", per_check_try_pending),
            ("_try_commit", per_check_try_commit),
            ("_try_stabilize", per_check_try_stabilize),
        ):
            setattr(process, name, MethodType(partial(body, system), process))
    return system


def per_check_guards_everywhere(monkeypatch):
    """:func:`per_check_guards` on every ``MulticastSystem`` built while
    ``monkeypatch`` is active."""
    init = MulticastSystem.__init__

    def per_check_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        per_check_guards(self)

    monkeypatch.setattr(MulticastSystem, "__init__", per_check_init)


def idle_counting_reduction_actions(self, pid, t):
    """``AtomicMulticast._reduction_actions`` counting every push as
    fired, also one where line 7 appended nothing."""
    fired = 0
    algo = self.system.processes[pid]
    phase = algo.phase
    for feed in self._feeds[pid]:
        entries, first = feed
        size = len(entries)
        while first < size and phase.get(entries[first].mid) == DELIVER:
            first += 1  # move on to the next entry of L_g
        feed[1] = first
        if first == size:
            continue
        message = entries[first]  # wait for it before pushing the next
        key = (pid, message.mid)
        if key not in self._pushed:
            algo.multicast(message)
            self._pushed.add(key)
            fired += 1
    return fired


def idle_counting_everywhere(monkeypatch):
    """The helper's count and the fire's parking rule as they were while
    ``monkeypatch`` is active: every push counts as fired, and a fire
    that fired anything leaves its process unparked."""
    monkeypatch.setattr(
        AtomicMulticast, "_reduction_actions", idle_counting_reduction_actions
    )
    fire = SharedObjectActor.fire

    def unparking_fire(self, t, budget=None, parked=None):
        fired = fire(self, t, budget, parked)
        if fired:
            self._system._parked.discard(self._pid)
        return fired

    monkeypatch.setattr(SharedObjectActor, "fire", unparking_fire)


def retired_settle_horizon(system: MulticastSystem, indicator_lag: Time = 0) -> Time:
    """The settle horizon the engine handed its scheduler, for ``system``
    built with ``indicator_lag``."""
    last_change = max(system.pattern.change_instants(), default=0)
    injector = system.injector
    return (
        max(
            last_change + system.mu.gamma.detection_lag + indicator_lag,
            max(
                (o.stabilization_time for o in system.mu.omegas.values()),
                default=0,
            ),
            injector.horizon if injector is not None else 0,
            system.scan_instants[-1] if system.scan_instants else 0,
        )
        + 1
    )
