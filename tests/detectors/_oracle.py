"""The lazy-epoch detector bodies, kept as the timeline oracle.

``SigmaOracle``, ``OmegaOracle``, ``IndicatorOracle`` and the merged
``OmegaSigmaSampler`` are now :class:`repro.detectors.base.Timeline`
values computed once per epoch when they are built, and
``GammaOracle`` holds one ``trusted`` timeline.  Here are the bodies
they replaced, verbatim apart from the base class: each computed its
answer at the first time it was asked inside an epoch and memoised it
under a ``(key, epoch)`` key.  ``GammaOracle`` keeps ``epoch`` and
``trusted_families_of_group``, and :class:`GammaPartners` is the body
of ``Mu.gamma_partners`` with its partner cache.

``tests/detectors/test_timeline_differential.py`` checks that every
component answers what these do.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.detectors.base import FailureDetector
from repro.detectors.cyclicity import gamma_groups
from repro.groups.families import family_fault_time
from repro.groups.topology import Group, GroupFamily, GroupTopology
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet, pset


class SigmaOracle(FailureDetector):
    kind = "Sigma"

    def __init__(self, pattern: FailurePattern, scope: ProcessSet) -> None:
        self.pattern = pattern
        if not scope:
            raise DetectorError("Sigma scope must be non-empty")
        self.scope = pset(scope)
        self._scope_correct = pset(
            p for p in self.scope if pattern.is_correct(p)
        )
        self.instants = list(
            pattern.restricted_to(self.scope).change_instants()
        )
        self._samples: Dict[int, FrozenSet[ProcessId]] = {}

    def query(self, p: ProcessId, t: Time) -> FrozenSet[ProcessId]:
        if not self._scope_correct or not self.instants:
            return self.scope
        epoch = bisect_right(self.instants, t)
        sample = self._samples.get(epoch)
        if sample is None:
            alive = pset(q for q in self.scope if self.pattern.is_alive(q, t))
            sample = pset(alive | self._scope_correct)
            self._samples[epoch] = sample
        return sample


class OmegaOracle(FailureDetector):
    kind = "Omega"

    def __init__(
        self,
        pattern: FailurePattern,
        scope: ProcessSet,
        stabilization_time: Optional[Time] = None,
    ) -> None:
        self.pattern = pattern
        if not scope:
            raise DetectorError("Omega scope must be non-empty")
        self.scope = pset(scope)
        if stabilization_time is None:
            stabilization_time = max(pattern.change_instants(), default=0)
        self.stabilization_time = stabilization_time
        self._sorted_scope = sorted(self.scope)
        correct = [q for q in self._sorted_scope if pattern.is_correct(q)]
        self.eventual_leader = correct[0] if correct else None
        self._change_instants = pattern.restricted_to(
            self.scope
        ).change_instants()
        self._samples: Dict[int, Optional[ProcessId]] = {}

    @property
    def instants(self) -> List[Time]:
        return sorted(set(self._change_instants) | {self.stabilization_time})

    def query(self, p: ProcessId, t: Time) -> ProcessId:
        if self.eventual_leader is not None and t >= self.stabilization_time:
            return self.eventual_leader
        epoch = bisect_right(self._change_instants, t)
        if epoch in self._samples:
            leader = self._samples[epoch]
        else:
            leader = next(
                (
                    q
                    for q in self._sorted_scope
                    if self.pattern.is_alive(q, t)
                ),
                None,
            )
            self._samples[epoch] = leader
        if leader is not None:
            return leader
        if self.eventual_leader is not None:
            return self.eventual_leader
        return self._sorted_scope[0]


class IndicatorOracle(FailureDetector):
    kind = "1"

    def __init__(
        self,
        pattern: FailurePattern,
        watched: ProcessSet,
        detection_lag: Time = 0,
    ) -> None:
        self.pattern = pattern
        if not watched:
            raise DetectorError("indicator scope must be non-empty")
        self.watched = pset(watched)
        self.detection_lag = detection_lag
        self._death_time = pattern.crash_time_of_set(self.watched)

    def query(self, p: ProcessId, t: Time) -> bool:
        if self._death_time is None:
            return False
        return t >= self._death_time + self.detection_lag


class GammaOracle(FailureDetector):
    kind = "gamma"

    def __init__(
        self,
        pattern: FailurePattern,
        topology: GroupTopology,
        detection_lag: Time = 0,
    ) -> None:
        self.pattern = pattern
        self.topology = topology
        self.detection_lag = detection_lag
        self._fault_times = {
            family: family_fault_time(family, pattern)
            for family in topology.cyclic_families()
        }
        self._exclusion_instants = sorted(
            {
                fault_time + detection_lag
                for fault_time in self._fault_times.values()
                if fault_time is not None
            }
        )
        self._samples: Dict[Tuple[ProcessId, int], FrozenSet[GroupFamily]] = {}
        self._group_samples: Dict[Tuple[Group, int], FrozenSet[GroupFamily]] = {}

    def epoch(self, t: Time) -> int:
        return bisect_right(self._exclusion_instants, t)

    def _excluded(self, family: GroupFamily, t: Time) -> bool:
        fault_time = self._fault_times[family]
        return fault_time is not None and t >= fault_time + self.detection_lag

    def query(self, p: ProcessId, t: Time) -> FrozenSet[GroupFamily]:
        key = (p, self.epoch(t))
        sample = self._samples.get(key)
        if sample is None:
            sample = frozenset(
                family
                for family in self.topology.families_of_process(p)
                if not self._excluded(family, t)
            )
            self._samples[key] = sample
        return sample

    def trusted_families_of_group(
        self, g: Group, t: Time
    ) -> FrozenSet[GroupFamily]:
        key = (g, self.epoch(t))
        sample = self._group_samples.get(key)
        if sample is None:
            sample = frozenset(
                family
                for family in self.topology.families_of_group(g)
                if not self._excluded(family, t)
            )
            self._group_samples[key] = sample
        return sample


class GammaPartners:
    """``Mu.gamma_partners`` over a retired :class:`GammaOracle`."""

    def __init__(self, gamma: GammaOracle) -> None:
        self.gamma = gamma
        self._partner_cache: Dict[Tuple[Group, int], Tuple[Group, ...]] = {}

    def __call__(self, t: Time, g: Group) -> Tuple[Group, ...]:
        key = (g, self.gamma.epoch(t))
        partners = self._partner_cache.get(key)
        if partners is None:
            partners = gamma_groups(
                self.gamma.trusted_families_of_group(g, t), g
            )
            self._partner_cache[key] = partners
        return partners


class OmegaSigmaSampler(FailureDetector):
    kind = "OmegaSigma"

    def __init__(self, omega: FailureDetector, sigma: FailureDetector) -> None:
        self.omega = omega
        self.sigma = sigma
        if omega.instants is not None and sigma.instants is not None:
            self.instants: Optional[List[Time]] = sorted(
                set(omega.instants) | set(sigma.instants)
            )
        self._cache: Dict[Tuple[ProcessId, int], Dict[str, Any]] = {}

    @classmethod
    def of(cls, pattern: FailurePattern, scope: ProcessSet) -> "OmegaSigmaSampler":
        restricted = pattern.restricted_to(scope)
        return cls(OmegaOracle(restricted, scope), SigmaOracle(restricted, scope))

    def query(self, p: ProcessId, t: Time) -> Dict[str, Any]:
        if self.instants is None:
            return {"omega": self.omega.query(p, t), "sigma": self.sigma.query(p, t)}
        key = (p, bisect_right(self.instants, t))
        sample = self._cache.get(key)
        if sample is None:
            sample = self._cache[key] = {
                "omega": self.omega.query(p, t),
                "sigma": self.sigma.query(p, t),
            }
        return sample
