"""What Algorithms 2–5 share: a whole-system host (one ``_advance`` per
global round) *queried* as a failure detector, which in Algorithms 2–4
advances instances of the multicast black box in which only some
processes take steps."""

from __future__ import annotations

from typing import Optional

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.detectors.base import FailureDetector
from repro.groups.topology import Group, GroupTopology
from repro.model.failures import FailurePattern
from repro.model.processes import ProcessId, ProcessSet
from repro.runtime.actors import RoundHost


class Extraction(RoundHost, FailureDetector):
    """An emulated detector.  ``run(rounds)`` advances exactly
    ``rounds`` global rounds: a round of an extraction is never idle."""

    def __init__(
        self, topology: GroupTopology, pattern: FailurePattern, seed: int
    ) -> None:
        RoundHost.__init__(self, seed)
        FailureDetector.__init__(self)
        self.topology = topology
        self.pattern = pattern


class _SubRun:
    """An instance of the black box in which only ``participants`` step.

    On its first tick the alive ``starters`` (default: every
    participant), in process order, each multicast to ``group`` —
    their identity, or ``payload`` when one is given.
    """

    def __init__(
        self,
        topology: GroupTopology,
        pattern: FailurePattern,
        seed: int,
        group: Group,
        participants: ProcessSet,
        variant: str = "vanilla",
        starters: Optional[ProcessSet] = None,
        payload: object = None,
    ) -> None:
        self.system = MulticastSystem(topology, pattern, variant, seed=seed)
        self.multicaster = AtomicMulticast(self.system)
        self.group = group
        self.participants = participants
        self._starters = participants if starters is None else starters
        self._payload = payload
        self._started = False

    def tick(self) -> None:
        if not self._started:
            self._started = True
            for p in sorted(self._starters):
                if self.system.is_alive(p):
                    self.multicaster.multicast(
                        p,
                        self.group.name,
                        payload=p if self._payload is None else self._payload,
                    )
        self.system.tick(participation=self.participants)

    def delivered_at(self, p: ProcessId) -> bool:
        """Whether the instance delivered some message at ``p``."""
        return bool(self.system.record.local_order(p))
