"""The client shell the comparator protocols share: ``multicast`` then
``run``, the trace in ``record`` for the property checkers — the same
shape as the genuine engine's."""

from __future__ import annotations

from typing import Any, Callable, Sequence, Set, Tuple

from repro.groups.topology import GroupTopology
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, Time
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
        self._delivered: Set[Tuple[ProcessId, object]] = set()

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

    def _deliver_in_stamp_order(
        self,
        t: Time,
        entries: Sequence[Any],
        conflicts: Callable[[Any, Any], bool],
        label: str,
    ) -> int:
        """Deliver stamped entries in stamp order; returns the deliveries.

        Each entry holds a ``message`` and its final ``stamp`` (``None``
        until fixed).  An entry is delivered, at its live destinations,
        once no entry it ``conflicts`` with is unstamped, or stamped lower
        and still undelivered at a live destination.  Every delivery is
        charged to the deliverer as a ``label`` step.
        """
        fired = 0
        for entry in sorted(
            (e for e in entries if e.stamp is not None), key=lambda e: e.stamp
        ):
            if not self._stamp_stable(t, entry, entries, conflicts):
                continue
            for p in sorted(entry.message.dst):
                key = (p, entry.message.mid)
                if key in self._delivered or not self.pattern.is_alive(p, t):
                    continue
                self._delivered.add(key)
                self.record.note_delivery(t, p, entry.message)
                self.record.note_step(t, p, received=label)
                fired += 1
        return fired

    def _stamp_stable(
        self,
        t: Time,
        entry: Any,
        entries: Sequence[Any],
        conflicts: Callable[[Any, Any], bool],
    ) -> bool:
        """Whether no conflicting entry can still be delivered first."""
        for other in entries:
            if other is entry or not conflicts(other, entry):
                continue
            if other.stamp is None:
                return False
            if other.stamp < entry.stamp and not all(
                (p, other.message.mid) in self._delivered
                or not self.pattern.is_alive(p, t)
                for p in other.message.dst
            ):
                return False
        return True

    def delivered_at(self, p: ProcessId) -> Tuple[MulticastMessage, ...]:
        return self.record.local_order(p)
