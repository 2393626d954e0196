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

from typing import FrozenSet, Iterable, Tuple

from repro.detectors.base import FailureDetector, Timeline, epoch_starts
from repro.groups.families import family_fault_time, is_chordless_cycle_family
from repro.groups.topology import Group, GroupFamily, GroupTopology
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId


class GammaOracle(FailureDetector):
    """Oracle-backed cyclicity detector.

    Attributes:
        topology: the destination groups; fixes ``F`` and ``F(p)``.
        detection_lag: delay, in time units, between a family becoming
            faulty and its exclusion from the output.
        trusted: the cyclic families not (yet) excluded, as a timeline
            whose instants are the fault times plus the lag.
    """

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
        families = topology.cyclic_families()
        excluded_at = {}  # family -> its fault time plus the lag
        for family in families:
            fault_time = family_fault_time(family, pattern)
            if fault_time is not None:
                excluded_at[family] = fault_time + detection_lag
        instants = sorted(set(excluded_at.values()))
        trusted = [
            frozenset(f for f in families if f not in excluded_at or t < excluded_at[f])
            for t in epoch_starts(instants)
        ]
        self.trusted = Timeline(instants, trusted)

    def query(self, p: ProcessId, t: Time) -> FrozenSet[GroupFamily]:
        """The families of ``F(p)`` not (yet) detected as faulty."""
        trusted = self.trusted.query(p, t)
        return frozenset(
            f for f in self.topology.families_of_process(p) if f in trusted
        )

    def partners(self, g: Group) -> Timeline:
        """``gamma(g)`` (:func:`gamma_groups`) over :attr:`trusted`: the
        same at every member of ``g``, which Algorithm 1's commit gate
        needs (see :meth:`repro.detectors.mu.Mu.gamma_timeline`)."""
        trusted = self.trusted
        return Timeline(trusted.instants, [gamma_groups(v, g) for v in trusted.values])


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
    partners = set()
    for family in output:
        if g not in family or not is_chordless_cycle_family(family):
            continue
        for h in family:
            if h != g and g.intersects(h):
                partners.add(h)
    return tuple(sorted(partners))
