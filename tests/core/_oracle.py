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
"""

from __future__ import annotations

from types import MethodType
from typing import Set

from repro.core.phases import COMMIT, DELIVER, PENDING, STABLE, START
from repro.metrics.trace import WAIT_QUORUM
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet


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
    if self.phase_of(m) != START:
        return False
    return self._try_pending(t, m, self._route(m))


def _try_commit(self, t, m, g):
    if self.phase_of(m) != PENDING:
        return False
    return self._try_commit(t, m, self._route(m))


def _try_stabilize(self, t, m, g, max_fires=None):
    if self.phase_of(m) != COMMIT:
        return 0  # pre at line 26: PHASE[m] = commit
    return self._try_stabilize(t, m, self._route(m), max_fires)


def _try_stable(self, t, m, g):
    if self.phase_of(m) != COMMIT:
        return False
    return self._try_stable(t, m, self._route(m))


def _try_deliver(self, t, m, g):
    if self.phase_of(m) != STABLE:
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
        if self.phase_of(message) != START or message in self._log(
            self._destination_group(message)
        ):
            self._to_multicast.discard(mid)
            continue
        if self._log(self._destination_group(message)).mutation_available(
            self.pid
        ):
            self._log(self._destination_group(message)).append(
                self.pid, message
            )
            self._to_multicast.discard(mid)
            fired += 1
        else:
            self._waiting(WAIT_QUORUM)
    done = self._done
    retired = len(done)
    try:
        for mid in self._scan_order:
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
        return fired
    finally:
        if len(done) > retired:
            self._scan_order = [m for m in self._scan_order if m not in done]


def five_tests_scan(process):
    """Route every scan of ``process`` (an ``Algorithm1Process``) through
    :func:`five_tests_try_actions`.  Returns ``process`` for chaining."""
    process.try_actions = MethodType(five_tests_try_actions, process)
    return process
