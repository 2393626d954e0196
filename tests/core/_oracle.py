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
"""

from __future__ import annotations

from typing import Set

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
