"""The cyclicity failure detector ``gamma`` (§3, new in the paper).

At process ``p``, ``gamma`` returns a set of cyclic families drawn from
``F(p)`` such that:

* *Accuracy*: if a family of ``F(p)`` is **not** output at ``p`` at time
  ``t``, that family is faulty at ``t``;
* *Completeness*: at a correct process, a family of ``F(p)`` that is
  faulty is eventually excluded from the output forever.

The oracle excludes a family once it has been faulty for ``detection_lag``
time units (``0`` = eager, exact detection).  A family is faulty only
through intersections whose members all crash and never recover (a
member that rejoins is correct under the crash–recovery overlay), so
faultiness is monotone and lagged exclusion still satisfies Accuracy.

The module also provides :func:`gamma_groups`, the derived notation
``gamma(g)`` used by Algorithm 1: the groups ``h`` intersecting ``g`` such
that ``g`` and ``h`` belong to a common family currently output by the
detector.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, Iterable, Tuple

from repro.detectors.base import OracleDetector
from repro.groups.families import family_fault_time
from repro.groups.topology import Group, GroupFamily, GroupTopology
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId


class GammaOracle(OracleDetector):
    """Oracle-backed cyclicity detector.

    Attributes:
        topology: the destination groups; fixes ``F`` and ``F(p)``.
        detection_lag: delay, in time units, between a family becoming
            faulty and its exclusion from the output.
    """

    kind = "gamma"

    def __init__(
        self,
        pattern: FailurePattern,
        topology: GroupTopology,
        detection_lag: Time = 0,
    ) -> None:
        super().__init__(pattern)
        self.topology = topology
        self.detection_lag = detection_lag
        #: Precomputed fault time per cyclic family (None = never faulty).
        self._fault_times = {
            family: family_fault_time(family, pattern)
            for family in topology.cyclic_families()
        }
        # The output at ``p`` is a pure function of which families are
        # excluded, which only changes when some fault time plus the lag
        # elapses; queries inside one such epoch share a cached sample.
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
        """The exclusion-state epoch of time ``t``.

        Samples (and anything derived from them, like the ``gamma(g)``
        partner sets) are constant within one epoch — callers may use
        this as a memoization key.
        """
        return bisect_right(self._exclusion_instants, t)

    def _excluded(self, family: GroupFamily, t: Time) -> bool:
        """Whether ``family`` is excluded from outputs at time ``t``."""
        fault_time = self._fault_times[family]
        return fault_time is not None and t >= fault_time + self.detection_lag

    def query(self, p: ProcessId, t: Time) -> FrozenSet[GroupFamily]:
        """The families of ``F(p)`` not (yet) detected as faulty."""
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
        """The families of ``F(g)`` not (yet) detected as faulty.

        A *group-uniform* view: unlike :meth:`query`, the answer does not
        depend on which member asks.  Algorithm 1's commit gate needs
        this uniformity — a member of ``g`` that carries no intersection
        of a live family ``f ∋ g`` (so ``f ∉ F(p)``) would otherwise see
        an empty partner set and propose an ordering position before the
        carriers of ``f`` have written their ``(m, h, ·)`` records,
        poisoning ``CONS_m`` with a stale value (the termination gap of
        DESIGN.md §13, "Golden-versioning policy").  The oracle's exclusion state is the same one
        :meth:`query` consults, so Accuracy and Completeness carry over
        family-by-family.
        """
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


def gamma_groups(
    output: Iterable[GroupFamily], g: Group
) -> Tuple[Group, ...]:
    """``gamma(g)``: groups ``h`` with ``g ∩ h ≠ ∅`` such that ``g`` and
    ``h`` belong to a cyclic family in the detector's output (§3).

    Partnering is derived from the *chordless-cycle* families in the
    output.  This refines the paper's wording to keep Algorithm 1 live:
    in a family whose intersection graph has chords, a chord intersection
    ``g ∩ h`` can die while the family's hamiltonian cycle stays alive —
    the family is then never excluded, yet nobody can ever write the
    ``(m, h, ·)`` records the waiters ask for.  Every intersecting pair
    inside a cyclic family also shares a chordless-cycle family (shortcut
    the cycle through its chords), and a chordless family through edge
    ``(g, h)`` is faulty exactly when one of its cycle edges — possibly
    ``g ∩ h`` itself — dies, which is precisely when the paper's Lemma 25
    needs the wait to end.  On chordless topologies (rings, triangles,
    Figure 1's families f and f') this coincides with the literal
    definition.

    Args:
        output: the family set returned by a gamma query.
        g: the destination group of interest.
    """
    from repro.groups.families import is_chordless_cycle_family

    partners = set()
    for family in output:
        if g not in family or not is_chordless_cycle_family(family):
            continue
        for h in family:
            if h != g and g.intersects(h):
                partners.add(h)
    return tuple(sorted(partners))
