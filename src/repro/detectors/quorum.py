"""The quorum failure detector ``Sigma`` (§3, from [15]).

``Sigma`` returns non-empty process sets satisfying:

* *Intersection*: any two samples, at any processes and times, intersect;
* *Liveness*: at every correct process, samples are eventually contained
  in the correct processes.

The oracle implementation returns the alive members of its scope, which
satisfies both properties whenever the scope contains a correct process
(every sample then contains ``Correct ∩ P``).  When the whole scope is
faulty, Liveness is vacuous (restricted to ``F ∩ P`` there is no correct
process) and the oracle pins its output to the full scope so Intersection
still holds.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet

from repro.detectors.base import OracleDetector
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet, pset


class SigmaOracle(OracleDetector):
    """Oracle-backed ``Sigma_P``.

    Attributes:
        scope: the process set ``P`` the detector is restricted to;
            ``Sigma_P`` over the full system is obtained by passing all
            processes.
    """

    kind = "Sigma"

    def __init__(self, pattern: FailurePattern, scope: ProcessSet) -> None:
        super().__init__(pattern)
        if not scope:
            raise DetectorError("Sigma scope must be non-empty")
        self.scope = pset(scope)
        self._scope_correct = pset(
            p for p in self.scope if pattern.is_correct(p)
        )
        # The sample is a pure function of which scope members are alive,
        # which only changes at the scope's crash *and* recovery
        # instants — one cached sample per inter-change interval (a
        # single constant sample on failure-free patterns, where kernel
        # runs issue one query per process per round).  Recovery makes
        # the alive set non-monotone, but each epoch is still constant.
        self.instants = sorted(
            {
                when
                for q, when in pattern.crash_times.items()
                if q in self.scope
            }
            | {
                when
                for q, when in pattern.recovery_times.items()
                if q in self.scope
            }
        )
        self._samples: Dict[int, FrozenSet[ProcessId]] = {}

    def query(self, p: ProcessId, t: Time) -> FrozenSet[ProcessId]:
        """A quorum of ``scope`` at time ``t``.

        The caller need not belong to the scope: the restriction semantics
        (return ``⊥`` outside ``P``) is layered on by
        :class:`repro.detectors.restriction.Restricted`.
        """
        if not self._scope_correct or not self.instants:
            # Entire scope eventually crashes: Liveness is vacuous, keep
            # Intersection by answering the constant full scope.  With no
            # crash or recovery in the scope, the full scope is also what
            # the epoch path below would compute: everyone, always alive.
            return self.scope
        epoch = bisect_right(self.instants, t)
        sample = self._samples.get(epoch)
        if sample is None:
            alive = pset(q for q in self.scope if self.pattern.is_alive(q, t))
            # Union in the correct members: on crash-stop patterns this
            # is a no-op (every correct member is alive), and under
            # crash–recovery it keeps Intersection — a temporarily-down
            # recovering member stays in every sample, so any two
            # samples intersect on ``Correct ∩ P``.  Operations quoting
            # such a member stall, admissibly, until its rejoin.
            sample = pset(alive | self._scope_correct)
            self._samples[epoch] = sample
        return sample
