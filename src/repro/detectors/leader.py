"""The leader failure detector ``Omega`` (§3, from [8]).

``Omega`` returns a process identity such that, when the scope contains a
correct process, eventually all correct processes are returned the same
correct leader forever (*Leadership*).

The oracle supports a configurable *stabilization time*: before it, the
sample is the smallest process of the scope still alive (which may be
faulty and may change over time — deliberately unstable, as the real
detector may misbehave for an arbitrary finite prefix); from the
stabilization time on, the sample is the smallest correct process of the
scope.  With ``stabilization_time=0`` the oracle is perfectly stable from
the start.
"""

from __future__ import annotations

from typing import Optional

from repro.detectors.base import Timeline, epoch_starts
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet, pset


class OmegaOracle(Timeline):
    """Oracle-backed ``Omega_P``.

    Attributes:
        scope: the process set the leader is drawn from.
        stabilization_time: first time at which the eventual leader is
            reported; defaults to the last crash time of the pattern
            (before which the detector may output crashed processes).
    """

    kind = "Omega"

    def __init__(
        self,
        pattern: FailurePattern,
        scope: ProcessSet,
        stabilization_time: Optional[Time] = None,
    ) -> None:
        if not scope:
            raise DetectorError("Omega scope must be non-empty")
        self.pattern = pattern
        self.scope = pset(scope)
        if stabilization_time is None:
            # Last alive-set change: crash times plus (under the
            # crash–recovery overlay) recovery times — Leadership is an
            # eventual property, and a leader elected before the final
            # rejoin may still be superseded.
            stabilization_time = max(pattern.change_instants(), default=0)
        self.stabilization_time = stabilization_time
        self._sorted_scope = sorted(self.scope)
        correct = [q for q in self._sorted_scope if pattern.is_correct(q)]
        #: The leader reported after stabilization (None when the whole
        #: scope is faulty, in which case Leadership is vacuous).
        self.eventual_leader = correct[0] if correct else None
        # Pre-stabilization samples change only at the scope's crash and
        # recovery instants.
        changes = pattern.restricted_to(self.scope).change_instants()
        instants = sorted(set(changes) | {stabilization_time})
        super().__init__(instants, [self._leader(t) for t in epoch_starts(instants)])

    def _leader(self, t: Time) -> ProcessId:
        """The leader estimate of the epoch starting at ``t``."""
        if self.eventual_leader is not None and t >= self.stabilization_time:
            return self.eventual_leader
        for q in self._sorted_scope:
            if self.pattern.is_alive(q, t):
                return q
        if self.eventual_leader is None:
            return self._sorted_scope[0]  # whole scope crashed: anything goes
        return self.eventual_leader

    # Bound here, not inherited: benchmarks/e2e/shim.py wraps it by name.
    query = Timeline.query
