"""Vanilla atomic multicast via the Proposition 1 reduction (§4.1).

Group-sequential atomic multicast requires that any two messages addressed
to the same group are ``≺``-ordered (the sender of the later one delivered
the earlier one first).  Proposition 1 reduces vanilla atomic multicast to
this variation using, per group ``g``, a shared list ``L_g`` maintained by
the members of ``g``:

* to multicast ``m``, add it to ``L_g``;
* every member pushes the *first locally-undelivered* entry of ``L_g``
  into the group-sequential instance ``A`` (helping — so a crashed sender
  cannot strand its message);
* the first ``A``-delivery of an entry is the vanilla delivery.

Pushing only the first undelivered entry makes the inputs of ``A``
group-sequential: whoever first pushes ``L_g[i+1]`` has delivered
``L_g[i]``.  ``A.multicast`` (Algorithm 1's line 7 append) is idempotent,
so concurrent helpers are harmless.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.algorithm1 import Algorithm1Process
from repro.core.engine import MulticastSystem
from repro.core.phases import DELIVER
from repro.groups.topology import Group
from repro.model.errors import SimulationError
from repro.model.messages import MessageId, MulticastMessage
from repro.model.processes import ProcessId
from repro.objects.log import Log
from repro.objects.space import LogHandle


class AtomicMulticast:
    """The vanilla (not group-sequential) atomic-multicast interface.

    Wraps a :class:`MulticastSystem` with the Proposition 1 reduction.
    Clients call :meth:`multicast` at any time, with any concurrency;
    running the system's rounds then drives every multicast message to
    delivery at the correct members of its destination group.
    """

    def __init__(self, system: MulticastSystem) -> None:
        self.system = system
        self._lists: Dict[Group, LogHandle] = {}
        self._pushed: Set[Tuple[ProcessId, MessageId]] = set()
        #: Per (process, group), how many leading entries of ``L_g`` the
        #: process has delivered.
        self._frontier: Dict[Tuple[ProcessId, Group], int] = {}
        system.add_component(self._reduction_actions)

    # -- The shared lists L_g ----------------------------------------------------

    def _list_of(self, g: Group) -> LogHandle:
        handle = self._lists.get(g)
        if handle is None:
            handle = LogHandle(
                Log(f"L_{g.name}"),
                g.members,
                self.system._charge,
                on_write=self.system._on_object_write,
            )
            self._lists[g] = handle
        return handle

    # -- Client interface ----------------------------------------------------------

    def multicast(
        self, src: ProcessId, group: str, payload: object = None
    ) -> MulticastMessage:
        """Multicast ``payload`` from ``src`` to ``group`` (vanilla)."""
        if not self.system.is_alive(src):
            raise SimulationError(f"{src} is crashed and cannot multicast")
        g = self.system.topology.group(group)
        if src not in g:
            raise SimulationError(
                f"closed model: {src.name} does not belong to {group}"
            )
        message = self.system.factory.multicast(src, g.members, payload)
        self.system.record.note_multicast(self.system.time, src, message)
        self._list_of(g).append(src, message)
        return message

    # -- The helping component, ticked by the engine -------------------------------

    def _reduction_actions(self, pid: ProcessId, t: int) -> int:
        """Push the first locally-undelivered entry of each ``L_g``."""
        fired = 0
        algo: Algorithm1Process = self.system.processes[pid]
        for g in algo.my_groups:
            handle = self._lists.get(g)
            if handle is None:
                continue
            # L_g is only appended to, never bumped: arrival order is its
            # <_L order, and the deliver phase is terminal, so the entries
            # behind the frontier stay delivered.
            entries = handle.arrivals
            first = self._frontier.get((pid, g), 0)
            while (
                first < len(entries)
                and algo.phase.get(entries[first].mid) == DELIVER
            ):
                first += 1  # move on to the next entry of L_g
            self._frontier[(pid, g)] = first
            if first == len(entries):
                continue
            message = entries[first]  # wait for it before pushing the next
            key = (pid, message.mid)
            if key not in self._pushed:
                algo.multicast(message)
                self._pushed.add(key)
                fired += 1
        return fired

    # -- Convenience ------------------------------------------------------------------

    def run(self, **kwargs: object) -> int:
        return self.system.run(**kwargs)

    def delivered_at(self, p: ProcessId) -> Tuple[MulticastMessage, ...]:
        return self.system.delivered_at(p)
