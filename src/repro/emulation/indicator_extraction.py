"""Algorithm 4: emulating ``1^{g∩h}`` from strict atomic multicast (§6.1).

Processes of ``g \\ h`` run an instance ``A_g`` of the *strict* algorithm
among themselves (and symmetrically ``h \\ g`` run ``A_h``): each
multicasts its identity to its group and waits for a delivery.  Because
the algorithm is strict and genuine, a delivery can only happen once the
silent intersection ``g ∩ h`` is entirely crashed — otherwise the sub-run
could be extended with a fresh message ordered inconsistently with real
time (Proposition 53's gluing argument).  A process that observes a
delivery broadcasts ``failed`` to ``g ∪ h``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.emulation.extraction import Extraction, _SubRun
from repro.groups.topology import GroupTopology
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet, pset


class IndicatorExtraction(Extraction):
    """The emulated ``1^{g∩h}`` (Algorithm 4).

    Attributes:
        g, h: the two intersecting destination groups.
        watched: ``g ∩ h``, the set whose collective death is reported.
    """

    kind = "1(emulated)"

    def __init__(
        self,
        topology: GroupTopology,
        pattern: FailurePattern,
        g_name: str,
        h_name: str,
        seed: int = 0,
    ) -> None:
        super().__init__(topology, pattern, seed)
        self.g = topology.group(g_name)
        self.h = topology.group(h_name)
        self.watched: ProcessSet = self.g.intersection(self.h)
        if not self.watched:
            raise DetectorError("the two groups must intersect")
        #: line 2: B = A_g at g \ h, A_h at h \ g, bottom inside g ∩ h;
        #: lines 4-5: each side's members multicast their identities.
        self._sides: List[_SubRun] = [
            _SubRun(
                topology,
                pattern,
                seed + index,
                group,
                pset(group.members - other.members),
                variant="strict",
            )
            for index, (group, other) in enumerate(
                ((self.g, self.h), (self.h, self.g))
            )
        ]
        #: Per-process failed flag (line 3).
        self._failed: Dict[ProcessId, bool] = {
            p: False for p in topology.processes
        }
        #: Failed broadcasts in flight: (deliver_at, recipient).
        self._in_flight: List[Tuple[Time, ProcessId]] = []

    def _advance(self, t: Time) -> int:
        """One round: flags propagate; both side instances advance."""
        still_flying = []
        for due, recipient in self._in_flight:
            if due > t:
                still_flying.append((due, recipient))
            elif self.pattern.is_alive(recipient, t):
                self._failed[recipient] = True
        self._in_flight = still_flying
        everyone = pset(self.g.members | self.h.members)
        for side in self._sides:
            side.tick()
            for p in side.participants:
                if side.delivered_at(p) and not self._failed[p]:
                    # line 6-7: delivery observed -> send failed to g ∪ h.
                    self._failed[p] = True
                    for q in everyone:
                        self._in_flight.append((t + 1, q))
        return 1

    def query(self, p: ProcessId, t: Time) -> bool:
        """Lines 10-11: the local failed flag."""
        return self._failed[p]
