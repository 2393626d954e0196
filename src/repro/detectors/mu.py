"""The candidate failure detector ``mu`` (§3).

``mu_G = (∧_{g,h∈G} Sigma_{g∩h}) ∧ (∧_{g∈G} Omega_g) ∧ gamma``

Note that the first conjunct ranges over *all* pairs, including ``g = h``:
``Sigma_{g∩g} = Sigma_g``, which combined with ``Omega_g`` makes consensus
wait-free solvable inside every destination group (§4).

:class:`Mu` is a value, the record of those components, each a history
(a ``Timeline``); :func:`build_mu` builds the pattern-oracle one, and any
other history may stand in (:meth:`repro.faults.injector.FaultInjector.perturb_mu`'s
do).  :meth:`Mu.query` is the conjunction itself: named component
samples, each restricted to its scope (``D_P`` is ``⊥`` outside ``P``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.detectors.base import BOTTOM, FailureDetector, Timeline
from repro.detectors.cyclicity import GammaOracle
from repro.detectors.leader import OmegaOracle
from repro.detectors.quorum import SigmaOracle
from repro.groups.topology import Group, GroupTopology
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet


class Mu(FailureDetector):
    """``mu_G`` as the record of its components.

    Attributes:
        topology: the destination groups ``G``.
        sigmas: ``Sigma_P`` per scope ``P`` — every group's member set and
            every non-empty intersection of two groups.
        omegas: ``Omega_g`` per group ``g``.
        gamma: the cyclicity component.
    """

    kind = "mu"

    def __init__(
        self,
        topology: GroupTopology,
        sigmas: Dict[FrozenSet[ProcessId], Timeline],
        omegas: Dict[Group, Timeline],
        gamma: GammaOracle,
    ) -> None:
        self.topology = topology
        self.sigmas = sigmas
        self.omegas = omegas
        self.gamma = gamma
        #: ``gamma(g)`` per group asked, as a timeline, built on the
        #: first ask (Algorithm 1 binds it once per destination group).
        self._partners: Dict[Group, Timeline] = {}

    # -- Component accessors (the API Algorithm 1 consumes) ---------------

    def sigma_of(self, scope: ProcessSet) -> Timeline:
        """``Sigma_scope``, for the member sets ``mu`` has a conjunct
        for: a group, or the intersection of two groups."""
        try:
            return self.sigmas[scope]
        except KeyError:
            names = sorted(q.name for q in scope)
            raise DetectorError(
                f"mu has no Sigma component scoped to {names}"
            ) from None

    def omega(self, g: Group) -> Timeline:
        """``Omega_g``."""
        try:
            return self.omegas[g]
        except KeyError:
            raise DetectorError(f"unknown group {g.name}") from None

    def gamma_timeline(self, g: Group) -> Timeline:
        """``gamma(g)`` (§3 derived notation) over time, group-uniform.

        Derived from the oracle's exclusions over ``F(g)``
        (:meth:`GammaOracle.partners`, built once per group) rather than
        from the asking member's own sample over ``F(p)``: every member
        of ``g`` must gate commit/stabilize on the *same* partner set, or
        a member carrying no intersection of a live family of ``g`` sees
        no partners, commits early, and decides a stale ordering position
        for everyone (DESIGN.md §13, "Golden-versioning policy").
        Algorithm 1 binds it into each destination group's route.
        """
        try:
            return self._partners[g]
        except KeyError:
            partners = self._partners[g] = self.gamma.partners(g)
            return partners

    def gamma_partners(self, t: Time, g: Group) -> Tuple[Group, ...]:
        """``gamma(g)`` at ``t``: :meth:`gamma_timeline` sampled."""
        return self.gamma_timeline(g).query(None, t)

    # -- FailureDetector interface ----------------------------------------

    def query(self, p: ProcessId, t: Time) -> Dict[str, object]:
        """The full conjunction sample, keyed by component name.

        Set restriction ``D_P`` (§3) is applied here: a ``sigma:`` or
        ``omega:`` component answers ``⊥`` at a process outside its scope.
        """
        sample: Dict[str, object] = {}
        for members, sigma in self.sigmas.items():
            sample["sigma:" + ",".join(q.name for q in sorted(members))] = (
                sigma.query(p, t) if p in members else BOTTOM
            )
        for g, omega in self.omegas.items():
            sample[f"omega:{g.name}"] = (
                omega.query(p, t) if p in g.members else BOTTOM
            )
        sample["gamma"] = self.gamma.query(p, t)
        return sample


def build_mu(
    pattern: FailurePattern, topology: GroupTopology, gamma_lag: Time = 0
) -> Mu:
    """The pattern-oracle ``mu`` of a run: each ``Sigma`` / ``Omega``
    component over its scope's restriction of ``pattern``, and ``gamma``
    with detection lag ``gamma_lag``."""
    sigmas: Dict[FrozenSet[ProcessId], Timeline] = {}
    omegas: Dict[Group, Timeline] = {}
    for g in topology.groups:
        restricted = pattern.restricted_to(g.members)
        omegas[g] = OmegaOracle(restricted, g.members)
        sigmas[g.members] = SigmaOracle(restricted, g.members)
    for g, h in topology.intersecting_pairs():
        shared = g.intersection(h)
        if shared not in sigmas:
            sigmas[shared] = SigmaOracle(pattern.restricted_to(shared), shared)
    gamma = GammaOracle(pattern, topology, detection_lag=gamma_lag)
    return Mu(topology, sigmas, omegas, gamma)
