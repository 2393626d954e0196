"""The client shell the comparator protocols share: ``multicast`` then
``run``, the trace in ``record`` for the property checkers — the same
shape as the genuine engine's."""

from __future__ import annotations

from typing import Tuple

from repro.groups.topology import GroupTopology
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern
from repro.model.messages import MessageFactory, MulticastMessage
from repro.model.processes import ProcessId
from repro.model.runs import RunRecord
from repro.runtime.actors import RoundHost


class BaselineMulticast(RoundHost):
    """A whole-system host with the multicast client interface.

    A baseline adds its protocol: :meth:`_admit` and ``_advance``.
    """

    def __init__(
        self, topology: GroupTopology, pattern: FailurePattern, seed: int = 0
    ) -> None:
        super().__init__(seed)
        self.topology = topology
        self.pattern = pattern
        self.record = RunRecord(topology.processes, pattern)
        self.factory = MessageFactory()

    def multicast(
        self, src: ProcessId, group: str, payload: object = None
    ) -> MulticastMessage:
        """Multicast ``payload`` from ``src`` to ``group`` now."""
        if not self.pattern.is_alive(src, self.time):
            raise SimulationError(f"{src} is crashed and cannot multicast")
        g = self.topology.group(group)
        if src not in g:
            raise SimulationError(f"{src.name} does not belong to {group}")
        message = self.factory.multicast(src, g.members, payload)
        self.record.note_multicast(self.time, src, message)
        self._admit(message)
        return message

    def _admit(self, message: MulticastMessage) -> None:
        """Enter a fresh message into the protocol's state."""
        raise NotImplementedError

    def delivered_at(self, p: ProcessId) -> Tuple[MulticastMessage, ...]:
        return self.record.local_order(p)
