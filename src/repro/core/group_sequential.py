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

from typing import Any, Dict, List, Set, Tuple

from repro.core.algorithm1 import Algorithm1Process
from repro.core.engine import MulticastSystem
from repro.core.phases import DELIVER
from repro.model.errors import SimulationError
from repro.model.messages import MessageId, MulticastMessage
from repro.model.processes import ProcessId, ProcessSet
from repro.objects.space import LogHandle, reader_set


class AtomicMulticast:
    """The vanilla (not group-sequential) atomic-multicast interface.

    Wraps a :class:`MulticastSystem` with the Proposition 1 reduction.
    Clients call :meth:`multicast` at any time, with any concurrency;
    running the system's rounds then drives every multicast message to
    delivery at the correct members of its destination group.
    """

    def __init__(self, system: MulticastSystem) -> None:
        self.system = system
        #: The shared lists ``L_g``, one per group (keyed by its members,
        #: a message's ``dst``), read by its members.
        self._lists: Dict[ProcessSet, LogHandle] = {
            g.members: LogHandle(f"L_{g.name}", g.members, reader_set(g), system.sink)
            for g in system.topology.groups
        }
        self._pushed: Set[Tuple[ProcessId, MessageId]] = set()
        #: Per process, one ``[arrivals, frontier]`` feed per group ``g``
        #: of it: the live entry list of ``L_g`` (append-only) and how
        #: many leading entries of it the process has delivered.
        self._feeds: Dict[ProcessId, List[List[Any]]] = {
            p: [[self._lists[g.members].arrivals, 0] for g in algo.my_groups]
            for p, algo in system.processes.items()
        }
        system.add_component(self._reduction_actions)

    # -- Client interface ----------------------------------------------------------

    def multicast(
        self, src: ProcessId, group: str, payload: object = None
    ) -> MulticastMessage:
        """Multicast ``payload`` from ``src`` to ``group`` (vanilla)."""
        system = self.system
        if not system.is_alive(src):
            raise SimulationError(f"{src} is crashed and cannot multicast")
        message = system.make_message(src, group, payload)
        system.record.note_multicast(system.time, src, message)
        self._lists[message.dst].append(src, message)
        return message

    # -- The helping component, ticked by the engine -------------------------------

    def _reduction_actions(self, pid: ProcessId, t: int) -> int:
        """Push the first locally-undelivered entry of each ``L_g``;
        return how many pushes appended to ``LOG_g``.

        A push of an entry another member already appended, or that waits
        for a quorum, appends nothing and counts nothing: it enables no
        action of the scan (the scan's line-7 retry owns a waiting push).
        """
        fired = 0
        algo: Algorithm1Process = self.system.processes[pid]
        phase = algo.phase
        for feed in self._feeds[pid]:
            # L_g is only appended to, never bumped: arrival order is its
            # <_L order, and the deliver phase is terminal, so the entries
            # behind the frontier stay delivered.
            entries, first = feed
            size = len(entries)
            while first < size and phase.get(entries[first].mid) == DELIVER:
                first += 1  # move on to the next entry of L_g
            feed[1] = first
            if first == size:
                continue
            message = entries[first]  # wait for it before pushing the next
            key = (pid, message.mid)
            if key not in self._pushed:
                self._pushed.add(key)
                if algo.multicast(message):
                    fired += 1
        return fired

    # -- Convenience ------------------------------------------------------------------

    def run(self, **kwargs: object) -> int:
        return self.system.run(**kwargs)

    def delivered_at(self, p: ProcessId) -> Tuple[MulticastMessage, ...]:
        return self.system.delivered_at(p)
