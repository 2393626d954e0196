"""Algorithm 5: emulating ``Omega_{g∩h}`` from a strongly genuine
multicast black box (§6.2, Appendix B) — a CHT-style extraction.

The construction follows the four procedures of Algorithm 5:

* **Sample** — processes collaboratively sample the underlying failure
  detector into a growing DAG.  Here the DAG's load-bearing content is
  *which processes keep appearing in fresh samples*: crashed processes
  stop, so sufficiently recent samples mention only correct processes.

* **Simulate** — schedules compatible with DAG paths induce simulated
  runs of the algorithm ``A`` from the initial configurations ``I`` in
  which each member of ``g ∩ h`` multicasts one message, to either ``g``
  or ``h`` (everyone else stays silent).  A simulated step schedules one
  process; a member's first step also enacts its configured multicast —
  so two configurations differing at ``q`` stay indistinguishable until
  ``q`` takes a step, exactly the CHT adjacency notion.

* **Tag** — a schedule is tagged ``g`` (resp. ``h``) when in some
  explored extension a member of ``g ∩ h`` delivers first a message
  addressed to ``g`` (resp. ``h``).  One tag = univalent, two = bivalent.

* **Extract** — an adjacent pair of configurations with opposite
  univalencies pins its differing process as correct (Proposition 71);
  otherwise a bivalent configuration contains a decision boundary — a
  bivalent schedule with differently-valent extensions — whose deciding
  member of ``g ∩ h`` is correct (Propositions 72–75).  Failing both,
  the process returns itself.

Simulated runs execute against a fresh deployment under the strongly
genuine (§6.2 isolation) configuration with participation restricted to
the scheduled processes, so silent processes cannot lend quorums — the
property all the valency arguments hinge on.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.detectors.base import BOTTOM
from repro.emulation.extraction import Extraction
from repro.groups.topology import Group, GroupTopology
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time, failure_free
from repro.model.processes import ProcessId, ProcessSet, pset

#: A configuration: per member of g∩h (sorted), the group it multicasts to.
Config = Tuple[str, ...]

#: A simulated schedule: the sequence of scheduled process ids.
Schedule = Tuple[ProcessId, ...]


class OmegaExtraction(Extraction):
    """The emulated ``Omega_{g∩h}`` (Algorithm 5).

    Attributes:
        g, h: the two intersecting groups.
        scope: ``g ∩ h`` — where a leader is elected.
        max_depth: simulation-tree exploration depth.
    """

    kind = "Omega(emulated)"

    def __init__(
        self,
        topology: GroupTopology,
        pattern: FailurePattern,
        g_name: str,
        h_name: str,
        seed: int = 0,
        max_depth: int = 6,
    ) -> None:
        super().__init__(topology, pattern, seed)
        self.g = topology.group(g_name)
        self.h = topology.group(h_name)
        self.scope: ProcessSet = self.g.intersection(self.h)
        if not self.scope:
            raise DetectorError("the two groups must intersect")
        self.members: Tuple[ProcessId, ...] = tuple(sorted(self.scope))
        self.actors: Tuple[ProcessId, ...] = tuple(
            sorted(self.g.members | self.h.members)
        )
        self.seed = seed
        self.max_depth = max_depth
        #: Sample counts per process (the DAG's occurrence record).
        self._samples: Dict[ProcessId, int] = {p: 0 for p in self.actors}
        #: Sample counts as of two rounds ago, to detect stalling.
        self._history_marks: List[Dict[ProcessId, int]] = []
        #: Simulation memo: (alive_view, config, schedule) -> outcome.
        self._outcome_memo: Dict[Tuple, Optional[str]] = {}
        #: The configurations J_0 .. J_v of Proposition 70.
        self.configs: Tuple[Config, ...] = tuple(
            tuple("h" if j < i else "g" for j in range(len(self.members)))
            for i in range(len(self.members) + 1)
        )

    # -- Sample -----------------------------------------------------------------

    def _advance(self, t: Time) -> int:
        """One collaborative sampling round (the *Sample* procedure)."""
        marks = dict(self._samples)
        for p in self.actors:
            if self.pattern.is_alive(p, t):
                self._samples[p] += 1
        self._history_marks.append(marks)
        if len(self._history_marks) > 3:
            self._history_marks.pop(0)
        return 1

    def _alive_view(self) -> FrozenSet[ProcessId]:
        """Processes whose samples are still growing.

        Eventually this is exactly the correct processes: crashed ones
        stop producing DAG vertices (Proposition 60's fairness).
        """
        if not self._history_marks:
            return frozenset(self.actors)
        reference = self._history_marks[0]
        return frozenset(
            p
            for p in self.actors
            if self._samples[p] > reference.get(p, 0)
        )

    # -- Simulate ------------------------------------------------------------------

    def _simulate(self, config: Config, schedule: Schedule) -> Optional[str]:
        """Run ``schedule`` from configuration ``config``.

        Returns ``"g"``/``"h"`` when some member of ``g∩h`` has delivered
        a message in the resulting configuration (the destination group
        of the globally first such delivery), else ``None``.
        """
        view = self._alive_view()
        key = (view, config, schedule)
        if key in self._outcome_memo:
            return self._outcome_memo[key]
        system = MulticastSystem(
            self.topology,
            failure_free(self.topology.processes),
            isolation=True,
            seed=self.seed,
        )
        multicaster = AtomicMulticast(system)
        enacted: Set[ProcessId] = set()
        outcome: Optional[str] = None
        #: Every process named by the schedule serves quorums throughout —
        #: in CHT terms, the schedule's processes take the receive steps
        #: that complete the scheduled process's operations.
        responders = pset(schedule)
        for q in schedule:
            if q in self.scope and q not in enacted:
                enacted.add(q)
                target = config[self.members.index(q)]
                group_name = self.g.name if target == "g" else self.h.name
                multicaster.multicast(q, group_name, payload="probe")
            system.tick(participation=pset({q}), responders=responders)
            for event in system.record.deliveries:
                if event.process in self.scope:
                    delivered_to = event.message.dst
                    outcome = (
                        "g" if delivered_to == self.g.members else "h"
                    )
                    break
            if outcome:
                break
        self._outcome_memo[key] = outcome
        return outcome

    # -- Tag ----------------------------------------------------------------------------

    def _tags(
        self, config: Config, schedule: Schedule, depth: int
    ) -> FrozenSet[str]:
        """The valency tags of ``schedule`` in the tree of ``config``."""
        outcome = self._simulate(config, schedule)
        if outcome is not None:
            return frozenset((outcome,))
        if depth <= 0:
            return frozenset()
        tags: Set[str] = set()
        for q in sorted(self._alive_view()):
            tags |= self._tags(config, schedule + (q,), depth - 1)
            if len(tags) == 2:
                break
        return frozenset(tags)

    def root_valency(self, config: Config) -> FrozenSet[str]:
        return self._tags(config, (), self.max_depth)

    # -- Extract -------------------------------------------------------------------------

    def _univalent_critical(self) -> Optional[ProcessId]:
        """Adjacent configurations with opposite univalencies (line 37)."""
        valencies = [self.root_valency(c) for c in self.configs]
        for i in range(len(self.configs) - 1):
            a, b = valencies[i], valencies[i + 1]
            if a == frozenset(("g",)) and b == frozenset(("h",)):
                # J_i and J_{i+1} differ exactly at member i.
                return self.members[i]
            if a == frozenset(("h",)) and b == frozenset(("g",)):
                return self.members[i]
        return None

    def _decision_boundary(
        self, config: Config, schedule: Schedule, depth: int
    ) -> Optional[ProcessId]:
        """A bivalent schedule whose extensions decide differently.

        Returns the deciding process (preferring members of ``g∩h``),
        mirroring the decision gadgets of Appendix B.
        """
        extensions: Dict[ProcessId, FrozenSet[str]] = {}
        for q in sorted(self._alive_view()):
            extensions[q] = self._tags(config, schedule + (q,), depth - 1)
        deciders_g = [q for q, t in extensions.items() if t == frozenset(("g",))]
        deciders_h = [q for q, t in extensions.items() if t == frozenset(("h",))]
        if deciders_g and deciders_h:
            in_scope = [
                q for q in deciders_g + deciders_h if q in self.scope
            ]
            return in_scope[0] if in_scope else None
        if depth <= 1:
            return None
        for q, tags in extensions.items():
            if len(tags) == 2:  # descend along a bivalent child
                found = self._decision_boundary(
                    config, schedule + (q,), depth - 1
                )
                if found is not None:
                    return found
        return None

    def query(self, p: ProcessId, t: Time) -> object:
        """The *Extract* procedure (lines 36-44)."""
        if p not in self.scope:
            return BOTTOM
        critical = self._univalent_critical()
        if critical is not None:
            return critical
        for config in self.configs:
            if len(self.root_valency(config)) == 2:
                decider = self._decision_boundary(
                    config, (), self.max_depth
                )
                if decider is not None and decider in self.scope:
                    return decider
        return p  # line 44
