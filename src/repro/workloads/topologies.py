"""Destination-group topology generators.

These produce the families of topologies used across tests and
benchmarks:

* rings — the canonical cyclic families (γ is load-bearing);
* chains — intersecting but acyclic (``F = ∅``, §6.2's easy case);
* disjoint groups — the embarrassingly parallel case of §2.3;
* hub cliques — every group shares one process (many cyclic families);
* random overlapping topologies, seeded and reproducible;
* sparse-overlap topologies — hundreds of mostly-disjoint groups with
  occasional shared processes (the 100x-scale regime: intersection
  graphs stay sparse, so the cycle sweeps in :mod:`repro.groups` remain
  output-sensitive).

Every generator is registered in :data:`GENERATORS` under a ``kind``
name, so a :class:`repro.workloads.spec.TopologySpec` can address a topology
by *recipe* (``{"kind": "ring", "k": 200}``) instead of by expanded
group map — see :func:`build_generator`.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.groups.topology import GroupTopology, topology_from_indices
from repro.model.errors import SimulationError


def ring_topology(k: int) -> GroupTopology:
    """``k`` groups in a ring: ``g_i = {p_i, p_{i+1 mod k}}``.

    The whole topology is one cyclic family; breaking any single process
    kills it.  Requires ``k >= 3``.
    """
    if k < 3:
        raise ValueError("a ring needs at least 3 groups")
    groups = {f"g{i}": [i, (i % k) + 1] for i in range(1, k + 1)}
    return topology_from_indices(k, groups)


def chain_topology(k: int, group_size: int = 2) -> GroupTopology:
    """``k`` groups in a line: ``g_i`` and ``g_{i+1}`` share one process.

    The intersection graph is a path: intersecting yet hamiltonian-free
    (``F = ∅``).
    """
    if k < 2:
        raise ValueError("a chain needs at least 2 groups")
    stride = group_size - 1
    groups: Dict[str, List[int]] = {}
    for i in range(k):
        start = 1 + i * stride
        groups[f"g{i + 1}"] = list(range(start, start + group_size))
    process_count = 1 + k * stride
    return topology_from_indices(process_count, groups)


def disjoint_topology(k: int, group_size: int = 3) -> GroupTopology:
    """``k`` pairwise-disjoint groups of ``group_size`` processes."""
    if k < 1:
        raise ValueError("need at least one group")
    groups = {
        f"g{i + 1}": list(range(1 + i * group_size, 1 + (i + 1) * group_size))
        for i in range(k)
    }
    return topology_from_indices(k * group_size, groups)


def hub_topology(k: int, spoke_size: int = 2) -> GroupTopology:
    """``k`` groups all sharing process ``p1`` (a clique intersection
    graph): every subset of >= 3 groups is a cyclic family."""
    if k < 2:
        raise ValueError("a hub needs at least 2 groups")
    groups: Dict[str, List[int]] = {}
    next_proc = 2
    for i in range(1, k + 1):
        spokes = list(range(next_proc, next_proc + spoke_size - 1))
        groups[f"g{i}"] = [1] + spokes
        next_proc += spoke_size - 1
    return topology_from_indices(next_proc - 1, groups)


def random_topology(
    seed: int,
    process_count: int = 8,
    group_count: int = 4,
    min_size: int = 2,
    max_size: int = 4,
) -> GroupTopology:
    """A seeded random topology with possibly-overlapping groups.

    Every process is guaranteed to appear in at least zero groups (some
    may be idle — useful for the genuineness audit) and group memberships
    are drawn without replacement per group.
    """
    rng = random.Random(seed)
    groups: Dict[str, List[int]] = {}
    attempts = 0
    while len(groups) < group_count and attempts < 100 * group_count:
        attempts += 1
        size = rng.randint(min_size, min(max_size, process_count))
        members = sorted(rng.sample(range(1, process_count + 1), size))
        if members in list(groups.values()):
            continue  # groups are a *set* of process sets
        groups[f"g{len(groups) + 1}"] = members
    return topology_from_indices(process_count, groups)


def sparse_overlap_topology(
    k: int,
    group_size: int = 3,
    overlap_fraction: float = 0.25,
    seed: int = 0,
) -> GroupTopology:
    """``k`` mostly-disjoint groups with seeded sparse overlaps.

    Consecutive groups share one process with probability
    ``overlap_fraction`` (seeded, reproducible); all other pairs are
    disjoint.  The intersection graph is a disjoint union of short
    paths — no cyclic families, maximum degree 2 — which is the regime
    where hundreds of groups stay tractable: cycle enumeration is
    output-sensitive and the output here is empty.
    """
    if k < 1:
        raise ValueError("need at least one group")
    if group_size < 2:
        raise ValueError("overlapping groups need at least 2 members")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError("overlap_fraction must be within [0, 1]")
    rng = random.Random(seed)
    groups: Dict[str, List[int]] = {}
    next_proc = 1
    prev_last = None
    for i in range(1, k + 1):
        if prev_last is not None and rng.random() < overlap_fraction:
            members = [prev_last] + list(
                range(next_proc, next_proc + group_size - 1)
            )
            next_proc += group_size - 1
        else:
            members = list(range(next_proc, next_proc + group_size))
            next_proc += group_size
        groups[f"g{i}"] = members
        prev_last = members[-1]
    return topology_from_indices(next_proc - 1, groups)


#: The generator registry: ``kind`` name -> topology factory.  Factories
#: take only JSON-scalar keyword parameters so a recipe round-trips
#: through :class:`repro.workloads.spec.TopologySpec` JSON unchanged.
GENERATORS: Dict[str, Callable[..., GroupTopology]] = {
    "ring": ring_topology,
    "chain": chain_topology,
    "disjoint": disjoint_topology,
    "hub": hub_topology,
    "random": random_topology,
    "sparse_overlap": sparse_overlap_topology,
}


def build_generator(recipe: Mapping[str, Any]) -> GroupTopology:
    """Build the topology a generator recipe describes.

    ``recipe`` is a mapping with a ``kind`` key naming a registered
    generator plus that generator's keyword parameters, e.g.
    ``{"kind": "ring", "k": 200}``.
    """
    if "kind" not in recipe:
        raise SimulationError("generator recipe needs a 'kind' key")
    kind = recipe["kind"]
    factory = GENERATORS.get(kind)
    if factory is None:
        raise SimulationError(
            f"unknown topology generator {kind!r}; "
            f"registered: {sorted(GENERATORS)}"
        )
    params = {key: value for key, value in recipe.items() if key != "kind"}
    try:
        return factory(**params)
    except TypeError as exc:
        raise SimulationError(
            f"bad parameters for generator {kind!r}: {exc}"
        ) from exc
