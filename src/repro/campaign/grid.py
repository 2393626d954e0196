"""Declarative scenario grids.

A :class:`Campaign` describes a sweep as data: a set of *cases* — each
binding a topology to a failure pattern and a send script, the three
axes that must agree on process indices — crossed with independent grids
over the scalar axes (seeds, protocol variants, execution backends,
fault plans, delay models).  :meth:`Campaign.specs`
expands the grid into frozen
:class:`repro.workloads.spec.ScenarioSpec` values in a deterministic
order, so the same campaign always produces the same scenario list, the
same content hashes and — executed by
:func:`repro.campaign.executor.run_campaign` — byte-identical results
regardless of worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple, Union

from repro.faults.nemesis import MIXES, random_plan
from repro.faults.plan import FaultPlan
from repro.groups.topology import GroupTopology
from repro.model.failures import Time
from repro.runtime.delay import canonical_delay_spec
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec


@dataclass(frozen=True)
class CampaignCase:
    """One (topology, failure pattern, send script) binding.

    These three travel together because they share a frame of
    reference: crash times and sender indices only mean something
    relative to a specific topology.

    Attributes:
        label: case name, prefixed onto every derived scenario's label.
        topology: the destination groups.
        crashes: ``(process index, crash time)`` pairs.
        sends: the scripted multicasts.
    """

    label: str
    topology: TopologySpec
    crashes: Tuple[Tuple[int, Time], ...] = ()
    sends: Tuple[Send, ...] = ()


def case(
    label: str,
    topology: Union[GroupTopology, TopologySpec],
    sends: Sequence[Send] = (),
    crashes: Sequence[Tuple[int, Time]] = (),
) -> CampaignCase:
    """Build a :class:`CampaignCase` from a live or captured topology."""
    if isinstance(topology, GroupTopology):
        topology = TopologySpec.capture(topology)
    return CampaignCase(
        label=label,
        topology=topology,
        crashes=tuple(sorted(tuple(pair) for pair in crashes)),
        sends=tuple(sends),
    )


@dataclass(frozen=True)
class Campaign:
    """A declarative grid of scenarios.

    The expansion order is the nested product, outermost to innermost:
    cases x seeds x variants x backends x faults x delay_models (the
    delay axis collapses to a single entry on non-async backends — see
    :meth:`_delay_axis`).  The ``"kernel"`` backend expands only over
    cases whose groups are pairwise disjoint: it runs one replicated log
    per group and rejects intersecting groups.  Every expanded spec gets
    a deterministic label of the form
    ``case:s<seed>:<variant>[:<backend>][:<mix>][:f<hash6>][:d-<kind>]``
    (non-default axes only, keeping labels short on simple sweeps).

    Attributes:
        name: campaign name, recorded in manifests and result files.
        cases: the bound (topology, failures, sends) scenarios.
        seeds: engine seeds to sweep.
        variants: protocol variants to sweep.
        backends: execution backends (``"engine"`` / ``"kernel"`` /
            ``"async"``).
        faults: fault plans to sweep (the nemesis axis); ``None``
            entries run fault-free, and a mix name (one of
            :data:`repro.faults.nemesis.MIXES`) runs
            ``random_plan(seed, mix, ...)`` drawn from the cell's seed
            and its case's topology.
        delay_models: channel-latency specs to sweep on the ``async``
            backend (see :mod:`repro.runtime.delay`); ``None`` entries
            use the backend default.
        max_rounds: round budget shared by every scenario.
    """

    name: str
    cases: Tuple[CampaignCase, ...]
    seeds: Tuple[int, ...] = (0,)
    variants: Tuple[str, ...] = ("vanilla",)
    backends: Tuple[str, ...] = ("engine",)
    faults: Tuple[Union[None, FaultPlan, str], ...] = (None,)
    delay_models: Tuple[Optional[Tuple[Any, ...]], ...] = (None,)
    max_rounds: int = 600

    def __post_init__(self) -> None:
        if not self.cases:
            raise ValueError("a campaign needs at least one case")
        for axis in ("seeds", "variants", "backends", "faults", "delay_models"):
            if not getattr(self, axis):
                raise ValueError(f"campaign axis {axis!r} must be non-empty")
        for entry in self.faults:
            if isinstance(entry, str) and entry not in MIXES:
                raise ValueError(
                    f"unknown nemesis mix {entry!r}; pick from {MIXES}"
                )
        # Canonicalize eagerly so a malformed spec fails at build time.
        object.__setattr__(
            self,
            "delay_models",
            tuple(
                None if dm is None else canonical_delay_spec(dm)
                for dm in self.delay_models
            ),
        )

    def specs(self) -> Tuple[ScenarioSpec, ...]:
        """Expand the grid into frozen scenario specs, in grid order."""
        expanded = []
        topologies = {
            kase.topology: kase.topology.build() for kase in self.cases
        }
        for kase, seed, variant, backend, entry in itertools.product(
            self.cases, self.seeds, self.variants, self.backends, self.faults
        ):
            topology = topologies[kase.topology]
            if backend == "kernel" and topology.intersecting_pairs():
                continue
            mix = entry if isinstance(entry, str) else None
            plan = entry
            if mix is not None:
                plan = random_plan(
                    seed,
                    mix,
                    process_count=kase.topology.process_count,
                    groups=tuple(sorted(g.name for g in topology.groups)),
                )
            for dm in self._delay_axis(backend):
                axes = dict(
                    seed=seed,
                    variant=variant,
                    backend=backend,
                    faults=plan,
                    delay_model=dm,
                )
                expanded.append(
                    ScenarioSpec(
                        topology=kase.topology,
                        crashes=kase.crashes,
                        sends=kase.sends,
                        max_rounds=self.max_rounds,
                        name=self._label(kase.label, mix=mix, **axes),
                        **axes,
                    )
                )
        return tuple(expanded)

    def _delay_axis(
        self, backend: str
    ) -> Tuple[Optional[Tuple[Any, ...]], ...]:
        """The delay axis a backend actually sweeps.

        Only the async backend consumes a delay model; expanding the
        round backends over the axis would mint distinct cache cells
        for byte-identical runs, so they collapse to the single default
        entry.
        """
        if backend == "async":
            return self.delay_models
        return (None,)

    def _label(
        self,
        base: str,
        *,
        seed: int,
        variant: str,
        backend: str,
        mix: Optional[str],
        faults: Optional[FaultPlan],
        delay_model: Optional[Tuple[Any, ...]],
    ) -> str:
        parts = [base, f"s{seed}", variant]
        if len(self.backends) > 1 or backend != "engine":
            parts.append(backend)
        if mix is not None:
            parts.append(mix)
        if faults is not None:
            parts.append(f"f{faults.plan_hash()[:6]}")
        elif len(self.faults) > 1:
            parts.append("f-none")
        if delay_model is not None:
            parts.append(f"d-{delay_model[0]}")
        elif backend == "async" and len(self.delay_models) > 1:
            parts.append("d-default")
        return ":".join(parts)
