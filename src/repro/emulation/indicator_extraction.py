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

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.detectors.base import FailureDetector
from repro.groups.topology import Group, GroupTopology
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet, pset
from repro.runtime import system_scheduler


class IndicatorExtraction(FailureDetector):
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
        super().__init__()
        self.topology = topology
        self.pattern = pattern
        self.g = topology.group(g_name)
        self.h = topology.group(h_name)
        self.watched: ProcessSet = self.g.intersection(self.h)
        if not self.watched:
            raise DetectorError("the two groups must intersect")
        self._scheduler = system_scheduler(
            "indicator-extraction", self._advance, seed
        )
        self.tracer = self._scheduler.tracer
        #: line 2: B = A_g at g \ h, A_h at h \ g, bottom inside g ∩ h.
        self._sides: List[Tuple[Group, ProcessSet, MulticastSystem, AtomicMulticast]] = []
        for group, other in ((self.g, self.h), (self.h, self.g)):
            participants = pset(group.members - other.members)
            system = MulticastSystem(
                topology, pattern, variant="strict", seed=seed
            )
            seed += 1
            self._sides.append(
                (group, participants, system, AtomicMulticast(system))
            )
        self._started = False
        #: Per-process failed flag (line 3).
        self._failed: Dict[ProcessId, bool] = {
            p: False for p in topology.processes
        }
        #: Failed broadcasts in flight: (deliver_at, recipient).
        self._in_flight: List[Tuple[Time, ProcessId]] = []

    def _start(self) -> None:
        """Lines 4-5: each side multicasts the members' identities."""
        for group, participants, system, multicaster in self._sides:
            for p in sorted(participants):
                if system.is_alive(p):
                    multicaster.multicast(p, group.name, payload=p)
        self._started = True

    @property
    def time(self) -> Time:
        return self._scheduler.time

    def tick(self) -> None:
        """One round: both side instances advance; flags propagate."""
        self._scheduler.round()

    def _advance(self, t: Time) -> int:
        if not self._started:
            self._start()
        still_flying = []
        for due, recipient in self._in_flight:
            if due > t:
                still_flying.append((due, recipient))
            elif self.pattern.is_alive(recipient, t):
                self._failed[recipient] = True
        self._in_flight = still_flying
        everyone = pset(self.g.members | self.h.members)
        for group, participants, system, multicaster in self._sides:
            system.tick(participation=participants)
            for p in participants:
                if system.record.local_order(p) and not self._failed[p]:
                    # line 6-7: delivery observed -> send failed to g ∪ h.
                    self._failed[p] = True
                    for q in everyone:
                        self._in_flight.append((t + 1, q))
        return 1

    def run(self, rounds: int) -> None:
        """Advance exactly ``rounds`` global rounds (fixed budget)."""
        self._scheduler.run(rounds, halt_on_quiescence=False)

    def query(self, p: ProcessId, t: Time) -> bool:
        """Lines 10-11: the local failed flag."""
        return self._failed[p]
