"""Scenario specifications: a run described as a *value*.

``run_scenario`` grew one positional parameter per PR until a scenario
could only be described by an argument list — impossible to hash, store
in a manifest, or ship to a worker process.  A :class:`ScenarioSpec`
fixes that: it captures **everything that determines a run** (topology,
failure pattern, send script, seed, variant, detector lags, round
budget) as a frozen, hashable, JSON-round-trippable dataclass.  Two
specs that compare equal describe byte-identical runs;
:meth:`ScenarioSpec.spec_hash` is the stable content address the
campaign subsystem keys its manifests and result rows on.

Deliberately *not* part of a spec: output sinks such as
``trace_path``.  Where a trace lands does not change what the scenario
is, and the hash must identify the scenario, not the filesystem of the
machine that ran it.

Payloads inside :class:`repro.workloads.runner.Send` instructions
should be JSON scalars (strings, numbers, booleans, ``None``) so the
spec survives the JSON round trip unchanged; richer payloads still run
but will not round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro._content import content_hash
from repro.faults.plan import FaultPlan
from repro.groups.topology import GroupTopology, topology_from_indices
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, make_processes, pset

#: Bumped on breaking changes to the spec JSON layout.  Version 2 added
#: the execution-backend axis (``backend``, plus a kernel scheduling-mode
#: key PR 16 retired to a wire constant); version 3
#: added the ``faults`` axis (a :class:`repro.faults.FaultPlan`);
#: version 4 added the *generator* form of :class:`TopologySpec` (a
#: topology addressed by recipe instead of by expanded group map);
#: version 5 added the asynchronous backend and its axes
#: (``delay_model``, ``clock``); version 6 added the ``quirks`` axis
#: (named, replayable legacy behaviours such as the pre-fix superseded-
#: proposer stall).  Older payloads load unchanged: v1–v3 topologies
#: always carry the explicit ``groups`` map, which still round-trips
#: byte-identically, and the v5/v6 axes default to absent.
SPEC_SCHEMA_VERSION = 6

#: The execution backends a scenario can run on: the round-based
#: shared-object engine of §4.4, the step-level Appendix-A kernel, or
#: the real-time asynchronous driver over the engine's actors.
BACKENDS = ("engine", "kernel", "async")

#: Clock sources of the async backend (see repro.runtime.async_driver).
CLOCKS = ("virtual", "wall")

#: Named, replayable legacy behaviours a scenario may opt back into
#: (schema v6).  A *quirk* re-enables a retired code path byte-for-byte
#: so a historical bug stays a reachable, content-addressed target for
#: the fault/schedule explorer instead of vanishing with its fix:
#:
#: * ``"supersede-wait"`` — the pre-PR-4 :class:`ConsensusAutomaton`
#:   prepare phase: a proposer superseded by a higher promised ballot
#:   keeps waiting for promises that can never arrive instead of
#:   abandoning the ballot (the consensus liveness stall surfaced by
#:   ``omega_late`` leader rotation).  Kernel backend only.
KNOWN_QUIRKS = ("supersede-wait",)


def _delay_spec_to_json(spec: Any) -> Any:
    """Canonical delay tuple -> JSON-ready nested lists (None passes)."""
    if spec is None:
        return None
    if isinstance(spec, (tuple, list)):
        return [_delay_spec_to_json(item) for item in spec]
    return spec


@dataclass(frozen=True)
class TopologySpec:
    """A destination-group topology as plain data.

    Two forms:

    * **explicit map** (v1+): ``groups`` carries every group's member
      indices — one canonical form per topology, so equal topologies
      produce equal specs;
    * **generator** (v4+): ``generator`` carries a recipe such as
      ``{"kind": "ring", "k": 200}`` addressing a registered factory in
      :mod:`repro.workloads.topologies`.  The spec (and hence the
      scenario hash) covers the *recipe*, not the expanded group map —
      a 200-group ring is three JSON scalars, and its content address
      never depends on how the factory happens to lay groups out.

    Attributes:
        process_count: size of the process universe ``P``.
        groups: ``(name, member indices)`` pairs, sorted by name, each
            member tuple sorted ascending.  Empty for generator specs.
        generator: canonicalized ``(key, value)`` recipe items, or
            ``None`` for explicit-map specs.
    """

    process_count: int
    groups: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    generator: Optional[Tuple[Tuple[str, Any], ...]] = None

    @classmethod
    def capture(cls, topology: GroupTopology) -> "TopologySpec":
        """Extract the spec of a live :class:`GroupTopology`."""
        return cls(
            process_count=max(p.index for p in topology.processes),
            groups=tuple(
                sorted(
                    (g.name, tuple(p.index for p in sorted(g.members)))
                    for g in topology.groups
                )
            ),
        )

    @classmethod
    def from_generator(cls, recipe: Mapping[str, Any]) -> "TopologySpec":
        """A spec addressing a registered topology generator by recipe.

        The recipe is validated by building the topology once (cheap:
        construction does not enumerate families); parameters should be
        JSON scalars so the spec round-trips unchanged.
        """
        from repro.workloads.topologies import build_generator

        topology = build_generator(recipe)
        return cls(
            process_count=max(p.index for p in topology.processes),
            groups=(),
            generator=tuple(sorted(recipe.items())),
        )

    def build(self) -> GroupTopology:
        """Reconstruct the live topology this spec describes."""
        if self.generator is not None:
            from repro.workloads.topologies import build_generator

            return build_generator(dict(self.generator))
        return topology_from_indices(
            self.process_count, {name: list(members) for name, members in self.groups}
        )

    def to_json(self) -> Dict[str, Any]:
        if self.generator is not None:
            return {
                "process_count": self.process_count,
                "generator": dict(self.generator),
            }
        return {
            "process_count": self.process_count,
            "groups": {name: list(members) for name, members in self.groups},
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "TopologySpec":
        if "generator" in data:
            return cls(
                process_count=int(data["process_count"]),
                groups=(),
                generator=tuple(sorted(data["generator"].items())),
            )
        return cls(
            process_count=int(data["process_count"]),
            groups=tuple(
                sorted(
                    (name, tuple(int(i) for i in members))
                    for name, members in data["groups"].items()
                )
            ),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines one ``run_scenario`` execution.

    Attributes:
        topology: the destination groups, as a :class:`TopologySpec`.
        crashes: ``(process index, crash time)`` pairs, sorted — the
            failure pattern of the run.
        sends: the scripted multicasts (see
            :class:`repro.workloads.runner.Send`).
        seed: engine scheduling seed.
        variant: protocol variant (``"vanilla"``, ``"strict"``, ...).
        gamma_lag: detection lag of the gamma oracle.
        indicator_lag: detection lag of the intersection indicators.
        max_rounds: total round budget (script issuance + drain).
        backend: which execution loop runs the scenario — ``"engine"``
            (the §4.4 shared-object system, the default), ``"kernel"``
            (the Appendix-A step-level kernel driving one replicated log
            per destination group; requires pairwise-disjoint groups) or
            ``"async"`` (the same Algorithm 1 actors on the async driver
            under a wall- or virtual-clock delay model; schema v5).
        delay_model: the async backend's channel-latency model as a
            canonical spec tuple (see :mod:`repro.runtime.delay`), e.g.
            ``("uniform", 0.1, 0.9)``.  ``None`` (the default) uses the
            driver default and is excluded from :meth:`spec_hash`, so
            pre-v5 scenario addresses are stable.  Ignored by the round
            backends.
        clock: the async backend's time source — ``"virtual"`` (seeded
            deterministic, the default, excluded from the hash) or
            ``"wall"`` (real time).  Ignored by the round backends.
        faults: optional :class:`repro.faults.FaultPlan` — the nemesis
            perturbations applied to the run (schema v3).  ``None``, the
            default, runs fault-free and is excluded from
            :meth:`spec_hash`, so pre-nemesis scenario addresses are
            stable.
        quirks: named legacy behaviours to replay (schema v6), each a
            member of :data:`KNOWN_QUIRKS`; stored sorted.  The empty
            default is excluded from :meth:`spec_hash`, so pre-v6
            scenario addresses are stable.
        name: free-form label for reports.  Excluded from equality and
            from :meth:`spec_hash` — a label is not part of the
            scenario's identity.
    """

    topology: TopologySpec
    crashes: Tuple[Tuple[int, Time], ...] = ()
    sends: Tuple["Send", ...] = ()
    seed: int = 0
    variant: str = "vanilla"
    gamma_lag: Time = 0
    indicator_lag: Time = 0
    max_rounds: int = 600
    backend: str = "engine"
    faults: Optional["FaultPlan"] = None
    delay_model: Optional[Tuple[Any, ...]] = None
    clock: str = "virtual"
    quirks: Tuple[str, ...] = ()
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.clock not in CLOCKS:
            raise SimulationError(
                f"unknown clock {self.clock!r}; expected one of {CLOCKS}"
            )
        for quirk in self.quirks:
            if quirk not in KNOWN_QUIRKS:
                raise SimulationError(
                    f"unknown quirk {quirk!r}; expected members of {KNOWN_QUIRKS}"
                )
        # Canonical form: sorted, deduplicated — equal quirk sets must
        # compare (and hash) equal regardless of the order given.
        object.__setattr__(self, "quirks", tuple(sorted(set(self.quirks))))
        if self.delay_model is not None:
            from repro.runtime.delay import canonical_delay_spec

            # Canonicalize eagerly (lists -> tuples, parameters checked)
            # so equal scenarios compare equal after a JSON round trip.
            object.__setattr__(
                self, "delay_model", canonical_delay_spec(self.delay_model)
            )

    # -- Construction -----------------------------------------------------

    @classmethod
    def capture(
        cls,
        topology: GroupTopology,
        pattern: FailurePattern,
        sends: Sequence["Send"] = (),
        *,
        seed: int = 0,
        variant: str = "vanilla",
        gamma_lag: Time = 0,
        indicator_lag: Time = 0,
        max_rounds: int = 600,
        backend: str = "engine",
        faults: Optional[FaultPlan] = None,
        delay_model: Optional[Tuple[Any, ...]] = None,
        clock: str = "virtual",
        quirks: Tuple[str, ...] = (),
        name: str = "",
    ) -> "ScenarioSpec":
        """Extract a spec from a live topology, failure pattern and script."""
        return cls(
            topology=TopologySpec.capture(topology),
            crashes=tuple(
                sorted((p.index, t) for p, t in pattern.crash_times.items())
            ),
            sends=tuple(sends),
            seed=seed,
            variant=variant,
            gamma_lag=gamma_lag,
            indicator_lag=indicator_lag,
            max_rounds=max_rounds,
            backend=backend,
            faults=faults,
            delay_model=delay_model,
            clock=clock,
            quirks=quirks,
            name=name,
        )

    def faulted(self, plan: Optional[FaultPlan]) -> "ScenarioSpec":
        """The same scenario under a (possibly absent) fault plan."""
        return replace(self, faults=plan)

    def labelled(self, name: str) -> "ScenarioSpec":
        """The same scenario under a different report label."""
        return replace(self, name=name)

    # -- Reconstruction ----------------------------------------------------

    def build_topology(self) -> GroupTopology:
        return self.topology.build()

    def build_pattern(self) -> FailurePattern:
        processes = pset(make_processes(self.topology.process_count))
        return FailurePattern(
            processes,
            {ProcessId(index): when for index, when in self.crashes},
        )

    # -- Serialization -----------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """A JSON-ready dict; inverse of :meth:`from_json`."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "topology": self.topology.to_json(),
            "crashes": [[index, when] for index, when in self.crashes],
            "sends": [
                [s.sender, s.group, s.at_round, s.payload] for s in self.sends
            ],
            "seed": self.seed,
            "variant": self.variant,
            "gamma_lag": self.gamma_lag,
            "indicator_lag": self.indicator_lag,
            "max_rounds": self.max_rounds,
            # ``scheduling`` / ``event_driven``: wire constants of the two
            # axes PR 16 retired.  The first was hashed unconditionally
            # and both sit in every stored row's ``spec``, so they stay
            # emitted, in place, and no content address moves; they leave
            # with the one-shot ``migrate`` of ROADMAP item 2(c).
            "scheduling": "event",
            "backend": self.backend,
            "event_driven": None,
            "faults": None if self.faults is None else self.faults.to_json(),
            "delay_model": _delay_spec_to_json(self.delay_model),
            "clock": self.clock,
            "quirks": list(self.quirks),
            "name": self.name,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        from repro.workloads.runner import Send

        if data.get("schema", 1) > SPEC_SCHEMA_VERSION:
            raise SimulationError(
                f"spec payload has schema {data['schema']}, newer than the "
                f"supported {SPEC_SCHEMA_VERSION}; its axes would be dropped"
            )
        # Retired axes load only at their wire constants: any other
        # value was hashed, so dropping it would move a content address.
        for axis, constant in (("scheduling", "event"), ("event_driven", None)):
            if data.get(axis, constant) != constant:
                raise SimulationError(
                    f"spec payload sets the retired axis {axis!r} to "
                    f"{data[axis]!r}; PR 16 removed the scheduling modes "
                    f"(only {constant!r} or an absent key still loads)"
                )
        return cls(
            topology=TopologySpec.from_json(data["topology"]),
            crashes=tuple(
                sorted((int(i), int(t)) for i, t in data["crashes"])
            ),
            sends=tuple(
                Send(
                    sender=int(sender),
                    group=group,
                    at_round=int(at_round),
                    payload=payload,
                )
                for sender, group, at_round, payload in data["sends"]
            ),
            seed=int(data["seed"]),
            variant=data["variant"],
            gamma_lag=int(data["gamma_lag"]),
            indicator_lag=int(data["indicator_lag"]),
            max_rounds=int(data["max_rounds"]),
            # Absent in schema-version-1 payloads: engine default.
            backend=data.get("backend", "engine"),
            # Absent before schema version 3: fault-free.
            faults=(
                FaultPlan.from_json(data["faults"])
                if data.get("faults") is not None
                else None
            ),
            # Absent before schema version 5: round backends, no delay
            # axis.  __post_init__ canonicalizes the JSON lists back
            # into the tuple form.
            delay_model=data.get("delay_model"),
            clock=data.get("clock", "virtual"),
            # Absent before schema version 6: no legacy behaviours.
            quirks=tuple(data.get("quirks", ())),
            name=data.get("name", ""),
        )

    def spec_hash(self) -> str:
        """Content address of the scenario (sha256 hex).

        The label (``name``) is excluded: renaming a scenario must not
        change its identity, and deduplication across campaigns relies
        on that.  The schema version and any schema-2 backend axis still
        at its default are excluded too, so future additive schema bumps
        stop reshuffling the addresses of scenarios they do not affect —
        an engine-backed spec describes the same run it always did.
        """
        body = self.to_json()
        body.pop("name", None)
        body.pop("schema", None)
        if self.backend == "engine":
            body.pop("backend", None)
        body.pop("event_driven", None)  # was hashed only when not null
        if self.faults is None:
            body.pop("faults", None)
        # Schema-5 axes at their defaults are excluded for the same
        # reason as the schema-2 backend: pre-v5 addresses must not move.
        if self.delay_model is None:
            body.pop("delay_model", None)
        if self.clock == "virtual":
            body.pop("clock", None)
        # Schema-6 axis: a quirk-free spec hashes as it did pre-v6.
        if not self.quirks:
            body.pop("quirks", None)
        return content_hash(body)
