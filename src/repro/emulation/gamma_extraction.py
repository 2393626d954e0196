"""Algorithm 3: emulating ``gamma`` from a multicast black box (§5.2).

For every cyclic family ``f`` and closed path ``π ∈ cpaths(f)``, the
construction runs an instance ``A_π`` of the multicast algorithm in which
the processes of the *wrap edge* ``π[0] ∩ π[|π|-2]`` do **not**
participate.  The processes of ``π[0] ∩ π[1]`` multicast their identity to
``π[0]``; since the algorithm is genuine, the message can only be
delivered once the wrap edge is dead (its members could otherwise hold
concurrent messages whose order the deliverer must respect).  Each
delivery is relayed one edge further along the path (the *chain*), and
observers raise ``failed[π]`` when

* the chain reaches the antepenultimate group (message ``(π, |π|-3)``), or
* chains of two equivalent, opposite-direction paths have both started
  (two wrap edges of the same cycle are dead).

``query`` then returns the families of ``F(p)`` for which some cycle
(equivalence class of paths) has no failed path — the literal line 16.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.emulation.extraction import Extraction, _SubRun
from repro.groups.families import (
    ClosedPath,
    cpaths,
    path_direction,
    path_edges,
)
from repro.groups.topology import Group, GroupFamily, GroupTopology
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet, pset


class _PathInstance(_SubRun):
    """The per-path state: instance ``A_π`` plus the chain bookkeeping."""

    def __init__(
        self,
        topology: GroupTopology,
        pattern: FailurePattern,
        family: GroupFamily,
        path: ClosedPath,
        seed: int,
    ) -> None:
        self.family = family
        self.path = path
        self.groups = path[:-1]
        self.k = len(self.groups)
        wrap = path[0].intersection(path[self.k - 1])
        members: Set[ProcessId] = set()
        for g in family:
            members |= set(g.members)
        #: line 2: everyone in the family except the wrap edge takes
        #: part; lines 4-5: the first intersection multicasts stage 0.
        participants = pset(members - wrap)
        super().__init__(
            topology,
            pattern,
            seed,
            path[0],
            participants,
            starters=path[0].intersection(path[1]) & participants,
            payload=("chain", 0),
        )
        #: Stages whose relay multicast was already issued per process.
        self._relayed: Set[Tuple[ProcessId, int]] = set()
        #: Delivered stages observed per process (for the signal action).
        self._signalled: Set[Tuple[ProcessId, int]] = set()

    def tick(self) -> List[Tuple[ProcessId, int]]:
        """Advance the instance one round; return new signals.

        A *signal* is a pair ``(p, i)``: process ``p`` observed the
        delivery of stage ``i`` and belongs to ``π[i+1]`` (line 8).
        """
        super().tick()
        signals: List[Tuple[ProcessId, int]] = []
        for p in sorted(self.participants):
            for message in self.system.record.local_order(p):
                payload = message.payload
                if not (isinstance(payload, tuple) and payload[0] == "chain"):
                    continue
                stage = payload[1]
                if stage >= self.k - 1:  # line 8: i < |π| - 2
                    continue
                next_group = self.groups[stage + 1]
                if p not in next_group:
                    continue
                key = (p, stage)
                if key in self._signalled:
                    continue
                self._signalled.add(key)
                signals.append(key)
                relay = (p, stage + 1)
                if relay not in self._relayed and self.system.is_alive(p):
                    self._relayed.add(relay)
                    # line 10: A_π.multicast(p, i+1) to π[i+1].
                    self.multicaster.multicast(
                        p, next_group.name, payload=("chain", stage + 1)
                    )
        return signals


class GammaExtraction(Extraction):
    """The emulated cyclicity detector (Algorithm 3).

    Notifications ``send(π, i) to f`` are modelled as reliable broadcasts
    delivered one round later to the live members of the family.
    """

    kind = "gamma(emulated)"

    def __init__(
        self,
        topology: GroupTopology,
        pattern: FailurePattern,
        seed: int = 0,
    ) -> None:
        super().__init__(topology, pattern, seed)
        self._instances: Dict[ClosedPath, _PathInstance] = {}
        self._family_of: Dict[ClosedPath, GroupFamily] = {}
        for family in topology.cyclic_families():
            for path in cpaths(family):
                self._instances[path] = _PathInstance(
                    topology, pattern, family, path,
                    seed=seed + len(self._instances),
                )
                self._family_of[path] = family
        #: Per-process received notifications: path -> stages seen.
        self._received: Dict[ProcessId, Dict[ClosedPath, Set[int]]] = {
            p: {} for p in topology.processes
        }
        #: Broadcast queue: (deliver_at, recipients, path, stage).
        self._in_flight: List[Tuple[Time, ProcessSet, ClosedPath, int]] = []

    # -- Execution ----------------------------------------------------------------

    def _advance(self, t: Time) -> int:
        """One global round: notifications travel, instances advance."""
        # Deliver due notifications to live recipients.
        still_flying = []
        for due, recipients, path, stage in self._in_flight:
            if due > t:
                still_flying.append((due, recipients, path, stage))
                continue
            for q in recipients:
                if self.pattern.is_alive(q, t):
                    self._received[q].setdefault(path, set()).add(stage)
        self._in_flight = still_flying
        # Advance the instances; collect fresh signals (line 9 sends).
        for path, instance in self._instances.items():
            for p, stage in instance.tick():
                members: Set[ProcessId] = set()
                for g in instance.family:
                    members |= set(g.members)
                self._in_flight.append(
                    (t + 1, pset(members), path, stage)
                )
        return 1

    # -- The update rule (lines 11-13) ------------------------------------------------

    def _path_failed(self, p: ProcessId, path: ClosedPath) -> bool:
        inbox = self._received[p]
        stages = inbox.get(path, set())
        k = len(path) - 1
        if (k - 2) in stages:  # received (π, |π|-3): full chain
            return True
        if stages:
            # A chain on π started; if an equivalent converse-direction
            # chain also started, two wrap edges of the cycle are dead.
            for other, other_stages in inbox.items():
                if other == path or not other_stages:
                    continue
                if self._family_of[other] != self._family_of[path]:
                    continue
                if path_edges(other) != path_edges(path):
                    continue
                if path_direction(other) != path_direction(path):
                    return True
        return False

    # -- The emulated detector (lines 15-16) -------------------------------------------

    def query(self, p: ProcessId, t: Time) -> FrozenSet[GroupFamily]:
        alive: Set[GroupFamily] = set()
        for family in self.topology.families_of_process(p):
            classes: Dict[FrozenSet, List[ClosedPath]] = {}
            for path in cpaths(family):
                classes.setdefault(path_edges(path), []).append(path)
            for paths in classes.values():
                if not any(self._path_failed(p, path) for path in paths):
                    alive.add(family)
                    break
        return frozenset(alive)
