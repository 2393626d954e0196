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

from repro.detectors.base import Timeline, epoch_starts
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern
from repro.model.processes import ProcessSet, pset


class SigmaOracle(Timeline):
    """Oracle-backed ``Sigma_P``.

    The caller need not belong to the scope: the restriction semantics
    (return ``⊥`` outside ``P``) is layered on by
    :meth:`repro.detectors.mu.Mu.query`.

    Attributes:
        scope: the process set ``P`` the detector is restricted to;
            ``Sigma_P`` over the full system is obtained by passing all
            processes.
    """

    kind = "Sigma"

    def __init__(self, pattern: FailurePattern, scope: ProcessSet) -> None:
        if not scope:
            raise DetectorError("Sigma scope must be non-empty")
        self.pattern = pattern
        self.scope = pset(scope)
        correct = pset(p for p in self.scope if pattern.is_correct(p))
        # The sample is a pure function of which scope members are alive,
        # which only changes at the scope's crash *and* recovery instants.
        instants = list(pattern.restricted_to(self.scope).change_instants())
        if not correct or not instants:
            # Entire scope eventually crashes: Liveness is vacuous, keep
            # Intersection by answering the constant full scope (which is
            # everyone alive when no member ever crashes).
            values = [self.scope] * (len(instants) + 1)
        else:
            # Union in the correct members: on crash-stop patterns this
            # is a no-op (every correct member is alive), and under
            # crash–recovery it keeps Intersection — a temporarily-down
            # recovering member stays in every sample, so any two
            # samples intersect on ``Correct ∩ P``.  Operations quoting
            # such a member stall, admissibly, until its rejoin.
            values = [
                pset(pset(q for q in self.scope if pattern.is_alive(q, t)) | correct)
                for t in epoch_starts(instants)
            ]
        super().__init__(instants, values)

    # Bound here, not inherited: benchmarks/e2e/shim.py wraps it by name.
    query = Timeline.query
