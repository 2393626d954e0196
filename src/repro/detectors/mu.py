"""The candidate failure detector ``mu`` (§3).

``mu_G = (∧_{g,h∈G} Sigma_{g∩h}) ∧ (∧_{g∈G} Omega_g) ∧ gamma``

Note that the first conjunct ranges over *all* pairs, including ``g = h``:
``Sigma_{g∩g} = Sigma_g``, which combined with ``Omega_g`` makes consensus
wait-free solvable inside every destination group (§4).

:class:`Mu` is a facade bundling the oracle components with convenient
accessors; it also exposes itself as a plain :class:`Conjunction` for the
comparison harness.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.detectors.base import BOTTOM, FailureDetector
from repro.detectors.cyclicity import GammaOracle, gamma_groups
from repro.detectors.leader import OmegaOracle
from repro.detectors.quorum import SigmaOracle
from repro.detectors.restriction import Conjunction, Restricted
from repro.groups.topology import Group, GroupFamily, GroupTopology
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet


def _sigma_key(members: ProcessSet) -> str:
    """The conjunction's component name of ``Sigma_members``."""
    return "sigma:" + ",".join(q.name for q in sorted(members))


class Mu(FailureDetector):
    """Oracle-backed candidate ``mu_G``.

    Attributes:
        pattern: the run's failure pattern.
        topology: the destination groups ``G``.
        gamma_lag: detection lag of the gamma component.
        omega_stabilization: stabilization time of the Omega components.
    """

    kind = "mu"

    def __init__(
        self,
        pattern: FailurePattern,
        topology: GroupTopology,
        gamma_lag: Time = 0,
        omega_stabilization: Optional[Time] = None,
    ) -> None:
        super().__init__()
        self.pattern = pattern
        self.topology = topology
        self._sigmas: Dict[FrozenSet[ProcessId], SigmaOracle] = {}
        self._omegas: Dict[Group, OmegaOracle] = {}
        for g in topology.groups:
            restricted = pattern.restricted_to(g.members)
            self._omegas[g] = OmegaOracle(
                restricted, g.members, stabilization_time=omega_stabilization
            )
            self._sigmas[g.members] = SigmaOracle(restricted, g.members)
        for g, h in topology.intersecting_pairs():
            shared = g.intersection(h)
            if shared not in self._sigmas:
                self._sigmas[shared] = SigmaOracle(
                    pattern.restricted_to(shared), shared
                )
        self._gamma = GammaOracle(pattern, topology, detection_lag=gamma_lag)
        # ``gamma(g)`` partner sets are constant within one gamma
        # exclusion epoch; Algorithm 1 recomputes them on every commit /
        # stable scan, so this cache carries the engine's hottest path.
        self._partner_cache: Dict[Tuple[Group, int], Tuple[Group, ...]] = {}

    # -- Component accessors (the API Algorithm 1 consumes) ---------------

    def sigma_of(self, scope: ProcessSet) -> SigmaOracle:
        """``Sigma_scope``, for the member sets ``mu`` has a conjunct
        for: a group, or the intersection of two groups."""
        try:
            return self._sigmas[scope]
        except KeyError:
            names = sorted(q.name for q in scope)
            raise DetectorError(
                f"mu has no Sigma component scoped to {names}"
            ) from None

    def sigma(self, g: Group, h: Group) -> SigmaOracle:
        """``Sigma_{g∩h}`` (``Sigma_g`` when ``g == h``)."""
        return self.sigma_of(g.intersection(h))

    def omega(self, g: Group) -> OmegaOracle:
        """``Omega_g``."""
        try:
            return self._omegas[g]
        except KeyError:
            raise DetectorError(f"unknown group {g.name}") from None

    @property
    def gamma(self) -> GammaOracle:
        return self._gamma

    def delay_omega(self, group_name: Optional[str], until: Time) -> None:
        """Raise the stabilization time of ``Omega_g`` to at least ``until``.

        Used by the fault layer's ``omega_late`` injector: before the new
        stabilization time the oracle keeps reporting the smallest *alive*
        scope member (which may be faulty and may change) — exactly the
        arbitrary-finite-prefix misbehaviour the detector definition
        allows.  ``group_name=None`` delays every group's oracle.  Callers
        relying on :meth:`omega_settle_time` must re-read it afterwards.
        """
        for g, omega in self._omegas.items():
            if group_name is None or g.name == group_name:
                omega.stabilization_time = max(omega.stabilization_time, until)

    def omega_settle_time(self) -> Time:
        """The latest stabilization time across the ``Omega_g`` components.

        From this time on every group's leader oracle reports its
        eventual leader; it is part of the engine's detector settle
        horizon (liveness of the §4.3 consensus construction is only
        guaranteed after Omega stabilizes).
        """
        return max(
            (o.stabilization_time for o in self._omegas.values()), default=0
        )

    def gamma_partners(self, t: Time, g: Group) -> Tuple[Group, ...]:
        """``gamma(g)`` at ``t`` (§3 derived notation), group-uniform.

        Derived from the oracle's exclusion state over ``F(g)`` rather
        than from the asking member's own sample over ``F(p)``: every
        member of ``g`` must gate commit/stabilize on the *same* partner
        set, or a member carrying no intersection of a live family of
        ``g`` sees no partners, commits early, and decides a stale
        ordering position for everyone (ROADMAP item 6).
        """
        key = (g, self._gamma.epoch(t))
        partners = self._partner_cache.get(key)
        if partners is None:
            partners = gamma_groups(
                self._gamma.trusted_families_of_group(g, t), g
            )
            self._partner_cache[key] = partners
        return partners

    # -- FailureDetector interface ----------------------------------------

    def query(self, p: ProcessId, t: Time) -> Dict[str, object]:
        """The full conjunction sample, keyed by component name."""
        sample: Dict[str, object] = {}
        for members, sigma in self._sigmas.items():
            sample[_sigma_key(members)] = (
                sigma.query(p, t) if p in members else BOTTOM
            )
        for g, omega in self._omegas.items():
            sample[f"omega:{g.name}"] = (
                omega.query(p, t) if p in g.members else BOTTOM
            )
        sample["gamma"] = self._gamma.query(p, t)
        return sample

    def as_conjunction(self) -> Conjunction:
        """This detector as a plain named conjunction (for comparisons)."""
        components: Dict[str, FailureDetector] = {}
        for members, sigma in self._sigmas.items():
            components[_sigma_key(members)] = Restricted(sigma, members)
        for g, omega in self._omegas.items():
            components[f"omega:{g.name}"] = Restricted(omega, g.members)
        components["gamma"] = self._gamma
        return Conjunction(components)
