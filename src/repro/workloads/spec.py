"""Scenario specifications: a run described as a *value*.

``run_scenario`` grew one positional parameter per PR until a scenario
could only be described by an argument list — impossible to hash, store
in a manifest, or ship to a worker process.  A :class:`ScenarioSpec`
fixes that: it captures **everything that determines a run** (topology,
failure pattern, send script, seed, variant, detector lag, round
budget, backend, delay model, fault plan) as a frozen,
hashable, JSON-round-trippable dataclass.  Two specs that compare equal
describe byte-identical runs; :meth:`ScenarioSpec.spec_hash` is the one
content address a cell has — manifests, result rows and the campaign
cache (sweep cells and shrink probes alike) all key on it.

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

from dataclasses import dataclass, field, fields, replace
from typing import AbstractSet, Any, Dict, Mapping, Optional, Sequence, Tuple

from repro._content import content_hash
from repro.faults.plan import FaultPlan
from repro.groups.topology import GroupTopology, topology_from_indices
from repro.model.errors import SimulationError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, make_processes, pset

#: The spec wire layout's version, bumped on any change to it (a new
#: field included).  The schema is part of every content address, and
#: :meth:`ScenarioSpec.from_json` reads this one only: a payload of any
#: other schema fails loudly instead of loading under a moved address.
SPEC_SCHEMA_VERSION = 8

#: The execution backends a scenario can run on: the round-based
#: shared-object engine of §4.4, the step-level Appendix-A kernel, or
#: the asynchronous driver over the engine's actors.
BACKENDS = ("engine", "kernel", "async")


def _delay_spec_to_json(spec: Any) -> Any:
    """Canonical delay tuple -> JSON-ready nested lists (None passes)."""
    if spec is None:
        return None
    if isinstance(spec, (tuple, list)):
        return [_delay_spec_to_json(item) for item in spec]
    return spec


def _check_keys(what: str, data: Mapping[str, Any], keys: AbstractSet[str]) -> None:
    """Raise on a key the wire form never writes: the payload would load
    under an address that differs from the hash of its own body."""
    unknown = set(data) - keys
    if unknown:
        raise SimulationError(f"{what} payload has unknown keys {sorted(unknown)}")


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
        form = "generator" if "generator" in data else "groups"
        _check_keys("topology", data, {"process_count", form})
        if form == "generator":
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

    Every field is logical: crash times, budgets and latencies are in
    rounds on all three backends, and no field names a host or a clock.
    So a spec is one run, and running it again replays it byte for byte.

    Attributes:
        topology: the destination groups, as a :class:`TopologySpec`.
        crashes: ``(process index, crash time)`` pairs, sorted — the
            failure pattern of the run.
        sends: the scripted multicasts (see
            :class:`repro.workloads.runner.Send`).
        seed: engine scheduling seed.
        variant: protocol variant (``"vanilla"``, ``"strict"``, ...).
        gamma_lag: detection lag of the gamma oracle.
        max_rounds: total round budget (script issuance + drain).
        backend: which execution loop runs the scenario — ``"engine"``
            (the §4.4 shared-object system, the default), ``"kernel"``
            (the Appendix-A step-level kernel driving one replicated log
            per destination group; requires pairwise-disjoint groups) or
            ``"async"`` (the same Algorithm 1 actors on the async driver,
            whose clock counts rounds too).
        delay_model: the async backend's channel-latency model as a
            canonical spec tuple (see :mod:`repro.runtime.delay`), in
            round units, e.g. ``("uniform", 0.1, 0.9)``.  ``None`` (the
            default) uses the driver default.  Ignored by the round
            backends.
        faults: optional :class:`repro.faults.plan.FaultPlan` — the nemesis
            perturbations applied to the run.  ``None``, the default,
            runs fault-free.
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
    max_rounds: int = 600
    backend: str = "engine"
    faults: Optional["FaultPlan"] = None
    delay_model: Optional[Tuple[Any, ...]] = None
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
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
        **axes: Any,
    ) -> "ScenarioSpec":
        """Extract a spec from a live topology, failure pattern and script.

        ``axes`` are the remaining fields, by keyword, at the dataclass's
        own defaults when absent.
        """
        return cls(
            topology=TopologySpec.capture(topology),
            crashes=tuple(
                sorted((p.index, t) for p, t in pattern.crash_times.items())
            ),
            sends=tuple(sends),
            **axes,
        )

    def faulted(self, plan: Optional[FaultPlan]) -> "ScenarioSpec":
        """The same scenario under a (possibly absent) fault plan."""
        return replace(self, faults=plan)

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
        """Every field, plus the schema and the ``quirks`` constant;
        inverse of :meth:`from_json`."""
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
            "max_rounds": self.max_rounds,
            "backend": self.backend,
            "faults": None if self.faults is None else self.faults.to_json(),
            "delay_model": _delay_spec_to_json(self.delay_model),
            # The retired quirks axis, a wire constant until the next
            # schema bump: dropping it would move every address.
            "quirks": [],
            "name": self.name,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        from repro.workloads.runner import Send

        if data.get("schema") != SPEC_SCHEMA_VERSION:
            raise SimulationError(
                f"spec payload has schema {data.get('schema')!r}; only schema "
                f"{SPEC_SCHEMA_VERSION} loads (its content address would differ)"
            )
        _check_keys(
            "spec", data, {f.name for f in fields(cls)} | {"schema", "quirks"}
        )
        if data["quirks"] != []:
            # A planted defect is a test patch, not a spec value: loading
            # this payload would run the shipped protocol under its name.
            raise SimulationError(
                f"spec payload has quirks {data['quirks']!r}; only [] loads"
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
            max_rounds=int(data["max_rounds"]),
            backend=data["backend"],
            faults=(
                None
                if data["faults"] is None
                else FaultPlan.from_json(data["faults"])
            ),
            # __post_init__ canonicalizes the JSON lists back into tuples.
            delay_model=data["delay_model"],
            name=data["name"],
        )

    def spec_hash(self) -> str:
        """Content address of the scenario (sha256 hex): the hash of the
        wire form minus the label.

        Renaming a scenario must not change its identity — deduplication
        across campaigns relies on that — so ``name`` is the one key left
        out.  The schema stays in: a layout change moves every address.
        """
        body = self.to_json()
        del body["name"]
        return content_hash(body)
