"""Comparing failure detectors (Appendix A; Proposition 51, Corollary 52).

``D' ⪯ D`` ("D' is weaker than D") holds when an algorithm can transform
``D`` into ``D'``.  This module provides the two comparisons the paper
proves about the new detectors:

* :class:`GammaFromIndicators` — the Proposition 51 transformation: the
  conjunction ``∧_{g,h∈G} 1^{g∩h}`` implements ``gamma`` (a family is
  declared faulty once, for every equivalence class of closed paths, some
  visited edge's indicator has fired).

* :func:`distinguishing_scenario_gamma_vs_indicator` — the Corollary 52
  separation: ``gamma`` cannot implement ``1^{g∩h}`` when two groups
  intersect, exhibited as a pair of failure patterns with identical
  gamma histories but different required indicator outputs.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.detectors.base import FailureDetector
from repro.detectors.cyclicity import GammaOracle
from repro.detectors.indicator import IndicatorOracle
from repro.groups.families import hamiltonian_cycles, path_edges
from repro.groups.topology import Group, GroupFamily, GroupTopology
from repro.model.failures import FailurePattern, Time, crash_pattern, failure_free
from repro.model.processes import ProcessId, ProcessSet, pset


class GammaFromIndicators(FailureDetector):
    """Proposition 51: build ``gamma`` from the indicator conjunction.

    For a cyclic family ``f``, each hamiltonian cycle (equivalence class
    of ``cpaths(f)``) is declared broken when the indicator ``1^{g∩h}``
    of some edge ``(g, h)`` it visits returns true; ``f`` is excluded
    when every class is broken — exactly the path-based faultiness.
    """

    kind = "gamma(from indicators)"

    def __init__(
        self,
        topology: GroupTopology,
        indicators: Dict[FrozenSet[ProcessId], IndicatorOracle],
    ) -> None:
        self.topology = topology
        self.indicators = indicators

    @classmethod
    def with_oracles(
        cls,
        topology: GroupTopology,
        pattern: FailurePattern,
        detection_lag: Time = 0,
    ) -> "GammaFromIndicators":
        """Convenience: instantiate the indicator conjunction as oracles."""
        indicators: Dict[FrozenSet[ProcessId], IndicatorOracle] = {}
        for g, h in topology.intersecting_pairs():
            shared = g.intersection(h)
            if shared not in indicators:
                indicators[shared] = IndicatorOracle(
                    pattern, shared, detection_lag=detection_lag
                )
        return cls(topology, indicators)

    def _edge_dead(self, p: ProcessId, t: Time, g: Group, h: Group) -> bool:
        indicator = self.indicators.get(g.intersection(h))
        if indicator is None:
            return False
        return bool(indicator.query(p, t))

    def _family_excluded(
        self, p: ProcessId, t: Time, family: GroupFamily
    ) -> bool:
        for cycle in hamiltonian_cycles(family):
            closed = cycle + (cycle[0],)
            if not any(
                self._edge_dead(p, t, g, h) for g, h in path_edges(closed)
            ):
                return False  # this class has no fired edge: keep f
        return True

    def query(self, p: ProcessId, t: Time) -> FrozenSet[GroupFamily]:
        return frozenset(
            family
            for family in self.topology.families_of_process(p)
            if not self._family_excluded(p, t, family)
        )


def distinguishing_scenario_gamma_vs_indicator(
    topology: GroupTopology, g_name: str, h_name: str
) -> Optional[Tuple[FailurePattern, FailurePattern]]:
    """Corollary 52's witness: two patterns gamma cannot tell apart.

    Returns ``(F, F')`` where the intersection ``g∩h`` is correct in
    ``F`` and initially dead in ``F'``, while every cyclic family through
    the pair is *faulty in both from the start* — so every gamma history
    of ``F`` is also a gamma history of ``F'``, yet ``1^{g∩h}`` must
    output false forever in ``F`` and eventually true in ``F'``.

    Returns ``None`` when no such configuration exists in the topology
    (e.g. the pair shares no killable third party).
    """
    g = topology.group(g_name)
    h = topology.group(h_name)
    shared = g.intersection(h)
    if not shared:
        return None
    # Kill, at time 0, one process in every *other* edge of every family
    # containing both groups, making those families faulty under both
    # patterns without touching g∩h's correctness in F.
    victims: set = set()
    for family in topology.cyclic_families():
        if g not in family or h not in family:
            continue
        for a, b in itertools.combinations(sorted(family), 2):
            edge = a.intersection(b)
            if edge and edge != shared and not (edge & shared):
                victims.add(sorted(edge)[0])
    if not victims and any(
        g in f and h in f for f in topology.cyclic_families()
    ):
        return None  # cannot break the families without touching g∩h
    base = {p: 0 for p in victims}
    pattern_f = crash_pattern(topology.processes, base)
    with_dead_intersection = dict(base)
    for p in shared:
        with_dead_intersection[p] = 0
    pattern_f_prime = crash_pattern(topology.processes, with_dead_intersection)
    return pattern_f, pattern_f_prime


def gamma_histories_agree(
    topology: GroupTopology,
    pattern_a: FailurePattern,
    pattern_b: FailurePattern,
    observers: Iterable[ProcessId],
    horizon: Time,
) -> bool:
    """Whether the gamma oracle outputs identically under both patterns
    at the given (common-correct) observers up to ``horizon``."""
    gamma_a = GammaOracle(pattern_a, topology)
    gamma_b = GammaOracle(pattern_b, topology)
    for t in range(horizon + 1):
        for p in observers:
            if gamma_a.query(p, t) != gamma_b.query(p, t):
                return False
    return True
