"""Algorithm 2: emulating ``Sigma_{∩G}`` from a multicast black box (§5.1).

For a set ``G`` of at most two intersecting destination groups, each
process ``p`` runs, for every group ``g ∈ G`` and every subset ``x ⊆ g``
containing ``p``, an instance ``A_{g,x}`` of the multicast algorithm in
which only the processes of ``x`` participate.  Every participant
multicasts its identity; a subset becomes *responsive* at ``p`` when its
instance delivers some identity at ``p``.  The emulated quorum is the most
responsive subset per group (by the heartbeat ranking), intersected with
``∩G``.

Responsiveness is meaningful because of quorum gating: an instance whose
participants cannot muster the ``Sigma`` quorums of the objects involved
never delivers — exactly the sub-run indistinguishability that Theorem 49
glues into an ordering violation if two disjoint responsive sets existed.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.detectors.base import BOTTOM
from repro.emulation.extraction import Extraction, _SubRun
from repro.emulation.heartbeats import HeartbeatRanking
from repro.groups.topology import Group, GroupTopology
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet, pset


class SigmaExtraction(Extraction):
    """The emulated ``Sigma_{∩_{g∈G} g}`` (Algorithm 2).

    Attributes:
        topology: the destination groups of the underlying problem.
        groups: the one or two intersecting groups forming ``G``.
        scope: ``∩_{g∈G} g`` — the emulated detector's process set.
    """

    kind = "Sigma(emulated)"

    def __init__(
        self,
        topology: GroupTopology,
        pattern: FailurePattern,
        group_names: Sequence[str],
        seed: int = 0,
        max_subset_size: Optional[int] = None,
    ) -> None:
        super().__init__(topology, pattern, seed)
        if not 1 <= len(group_names) <= 2:
            raise DetectorError("Algorithm 2 takes one or two groups")
        self.groups: Tuple[Group, ...] = tuple(
            topology.group(name) for name in group_names
        )
        scope = self.groups[0].members
        for g in self.groups[1:]:
            scope = scope & g.members
        if not scope:
            raise DetectorError("the groups of G must intersect")
        self.scope: ProcessSet = pset(scope)
        self.ranking = HeartbeatRanking(pattern)
        #: All instances A_{g,x} — a full deployment restricted to x, in
        #: which every participant multicasts its identity (lines 5-7) —
        #: keyed by (group, participant set).
        self._instances: Dict[Tuple[Group, ProcessSet], _SubRun] = {}
        for g in self.groups:
            members = sorted(g.members)
            limit = max_subset_size or len(members)
            for size in range(1, min(limit, len(members)) + 1):
                for combo in itertools.combinations(members, size):
                    x = pset(combo)
                    self._instances[(g, x)] = _SubRun(
                        topology, pattern, seed + len(self._instances), g, x
                    )

    # -- Execution -------------------------------------------------------------

    def _advance(self, t: Time) -> int:
        """One global round: heartbeats beat, every instance advances."""
        self.ranking.advance(t)
        for instance in self._instances.values():
            instance.tick()
        return 1

    # -- The emulated detector ---------------------------------------------------

    def _responsive_sets(self, p: ProcessId, g: Group) -> List[ProcessSet]:
        """``Q_g`` at process ``p``: line 3 initial value plus line 9."""
        responsive = [g.members]
        for (group, x), instance in self._instances.items():
            if group != g or p not in x:
                continue
            if instance.delivered_at(p):
                responsive.append(x)
        return responsive

    def _most_responsive(self, p: ProcessId, g: Group) -> ProcessSet:
        """``qr_g``: line 14 — argmax of the ranking over ``Q_g``."""
        candidates = self._responsive_sets(p, g)
        return max(
            candidates,
            key=lambda x: (self.ranking.rank(x), -len(x), sorted(x)),
        )

    def query(self, p: ProcessId, t: Time) -> object:
        """Lines 10-15 of Algorithm 2."""
        if p not in self.scope:
            return BOTTOM
        union: set = set()
        for g in self.groups:
            union |= self._most_responsive(p, g)
        return pset(union & self.scope)
