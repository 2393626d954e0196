"""Declarative scenario grids.

A :class:`Campaign` describes a sweep as data: a set of *cases* — each
binding a topology to a failure pattern and a send script, the three
axes that must agree on process indices — crossed with independent grids
over the scalar axes (seeds, protocol variants, detector lags,
execution backends, fault plans, delay models).  :meth:`Campaign.specs`
expands the grid into frozen
:class:`repro.workloads.spec.ScenarioSpec` values in a deterministic
order, so the same campaign always produces the same scenario list, the
same content hashes and — executed by :func:`repro.campaign.run_campaign`
— byte-identical results regardless of worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro._content import content_hash
from repro.faults.plan import FaultPlan
from repro.groups.topology import GroupTopology
from repro.model.failures import FailurePattern, Time
from repro.runtime.delay import canonical_delay_spec
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec, _delay_spec_to_json


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
    pattern: Optional[FailurePattern] = None,
    sends: Sequence[Send] = (),
    crashes: Sequence[Tuple[int, Time]] = (),
) -> CampaignCase:
    """Build a :class:`CampaignCase` from live objects or plain data.

    ``pattern`` (a live :class:`FailurePattern`) and ``crashes`` (raw
    index/time pairs) are alternative spellings of the failure axis;
    passing both is a contradiction and raises :class:`ValueError`.
    """
    if pattern is not None and crashes:
        raise ValueError("pass either pattern or crashes, not both")
    if isinstance(topology, GroupTopology):
        topology = TopologySpec.capture(topology)
    if pattern is not None:
        crashes = tuple(
            sorted((p.index, t) for p, t in pattern.crash_times.items())
        )
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
    cases x seeds x variants x gamma_lags x indicator_lags x backends x
    faults x delay_models (the delay axis collapses to a single entry
    on non-async backends — see :meth:`_delay_axis`).  Every expanded
    spec gets a deterministic label of the form
    ``case:s<seed>:<variant>[:g<lag>][:i<lag>][:<backend>][:f<hash6>][:d-<kind>]``
    (non-default axes only, keeping labels short on simple sweeps).

    Attributes:
        name: campaign name, recorded in manifests and result files.
        cases: the bound (topology, failures, sends) scenarios.
        seeds: engine seeds to sweep.
        variants: protocol variants to sweep.
        gamma_lags / indicator_lags: detector lags to sweep.
        backends: execution backends (``"engine"`` / ``"kernel"`` /
            ``"async"``).
        faults: fault plans to sweep (the nemesis axis); ``None``
            entries run fault-free, and the default single-``None``
            axis keeps pre-nemesis campaigns (and their hashes)
            unchanged.
        delay_models: channel-latency specs to sweep on the ``async``
            backend (see :mod:`repro.runtime.delay`); ``None`` entries
            use the backend default, and the default single-``None``
            axis keeps pre-v5 campaigns (and their hashes) unchanged.
        max_rounds: round budget shared by every scenario.
    """

    name: str
    cases: Tuple[CampaignCase, ...]
    seeds: Tuple[int, ...] = (0,)
    variants: Tuple[str, ...] = ("vanilla",)
    gamma_lags: Tuple[Time, ...] = (0,)
    indicator_lags: Tuple[Time, ...] = (0,)
    backends: Tuple[str, ...] = ("engine",)
    faults: Tuple[Optional[FaultPlan], ...] = (None,)
    delay_models: Tuple[Optional[Tuple[Any, ...]], ...] = (None,)
    #: Retained-quirk names stamped onto *every* expanded spec (not an
    #: axis: quirk sweeps would double grids for cells whose backends
    #: ignore the quirk).  Empty — the default — is omitted from
    #: :meth:`to_json`, so pre-quirk campaign hashes are unchanged.
    quirks: Tuple[str, ...] = ()
    max_rounds: int = 600

    def __post_init__(self) -> None:
        if not self.cases:
            raise ValueError("a campaign needs at least one case")
        for axis in (
            "seeds",
            "variants",
            "gamma_lags",
            "indicator_lags",
            "backends",
            "faults",
            "delay_models",
        ):
            if not getattr(self, axis):
                raise ValueError(f"campaign axis {axis!r} must be non-empty")
        # Canonicalize eagerly so two spellings of one model share a
        # campaign hash (and a malformed spec fails at build time).
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
        for kase, seed, variant, gamma_lag, indicator_lag, backend, plan in (
            itertools.product(
                self.cases,
                self.seeds,
                self.variants,
                self.gamma_lags,
                self.indicator_lags,
                self.backends,
                self.faults,
            )
        ):
            for dm in self._delay_axis(backend):
                axes = dict(
                    seed=seed,
                    variant=variant,
                    gamma_lag=gamma_lag,
                    indicator_lag=indicator_lag,
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
                        quirks=self.quirks,
                        name=self._label(kase.label, **axes),
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
        gamma_lag: Time,
        indicator_lag: Time,
        backend: str,
        faults: Optional[FaultPlan],
        delay_model: Optional[Tuple[Any, ...]],
    ) -> str:
        parts = [base, f"s{seed}", variant]
        if len(self.gamma_lags) > 1 or gamma_lag:
            parts.append(f"g{gamma_lag}")
        if len(self.indicator_lags) > 1 or indicator_lag:
            parts.append(f"i{indicator_lag}")
        if len(self.backends) > 1 or backend != "engine":
            parts.append(backend)
        if faults is not None:
            parts.append(f"f{faults.plan_hash()[:6]}")
        elif len(self.faults) > 1:
            parts.append("f-none")
        if delay_model is not None:
            parts.append(f"d-{delay_model[0]}")
        elif backend == "async" and len(self.delay_models) > 1:
            parts.append("d-default")
        return ":".join(parts)

    def to_json(self) -> Dict[str, Any]:
        """The campaign as a JSON-ready dict (manifest material).

        The ``faults`` and ``delay_models`` axes are emitted only when
        they depart from their single-``None`` defaults, so earlier
        campaigns keep the manifest layout — and the
        :meth:`campaign_hash` — they always had.
        """
        body = self._base_json()
        if self.faults != (None,):
            body["faults"] = [
                None if plan is None else plan.to_json()
                for plan in self.faults
            ]
        if self.delay_models != (None,):
            body["delay_models"] = [
                _delay_spec_to_json(dm) for dm in self.delay_models
            ]
        if self.quirks:
            body["quirks"] = list(self.quirks)
        return body

    def _base_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cases": [
                {
                    "label": kase.label,
                    "topology": kase.topology.to_json(),
                    "crashes": [list(pair) for pair in kase.crashes],
                    "sends": [
                        [s.sender, s.group, s.at_round, s.payload]
                        for s in kase.sends
                    ],
                }
                for kase in self.cases
            ],
            "seeds": list(self.seeds),
            "variants": list(self.variants),
            "gamma_lags": list(self.gamma_lags),
            "indicator_lags": list(self.indicator_lags),
            # Wire constants of the two axes PR 16 retired, kept in place
            # so no ``campaign_hash`` moves; they leave with the ``migrate``
            # of ROADMAP item 2(c) (see ScenarioSpec.to_json).
            "schedulings": ["event"],
            "backends": list(self.backends),
            "event_drivens": [None],
            "max_rounds": self.max_rounds,
        }

    def campaign_hash(self) -> str:
        """Content address of the whole grid (sha256 hex)."""
        return content_hash(self.to_json())
