"""Destination groups and group topologies (§2.2, §3).

The atomic-multicast problem is fully determined by the set ``G`` of
destination groups (§2.2, dissemination model).  A :class:`Group` is a
named, non-empty set of processes; a :class:`GroupTopology` is the set
``G`` together with the system's processes, and provides all the derived
combinatorics the paper uses: ``G(p)``, pairwise intersections, the
intersection graph, and enumeration of the cyclic families ``F``.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.model.errors import TopologyError
from repro.model.processes import ProcessId, ProcessSet, make_processes, pset


class Group:
    """A destination group: a named, non-empty set of processes.

    Groups compare and hash by *membership* (the paper's ``G`` is a set of
    process sets); the name is purely for display and diagnostics.  Groups
    are totally ordered by membership so topologies are deterministic.
    """

    __slots__ = ("name", "members", "_key", "_hash")

    def __init__(self, name: str, members: Iterable[ProcessId]) -> None:
        self.name = name
        self.members: ProcessSet = pset(members)
        if not self.members:
            raise TopologyError(f"group {name!r} is empty")
        self._key = tuple(sorted(self.members))
        # Groups key every per-group table of Algorithm 1; the members
        # never change, so neither does their hash.
        self._hash = hash(self.members)

    def __contains__(self, p: ProcessId) -> bool:
        return p in self.members

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and self.members == other.members

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Group") -> bool:
        return self._key < other._key

    def intersects(self, other: "Group") -> bool:
        """Whether the two groups are *intersecting* (§2.2).

        A group trivially intersects itself; callers interested in proper
        intersections must also check ``self != other``.
        """
        return bool(self.members & other.members)

    def intersection(self, other: "Group") -> ProcessSet:
        """``g ∩ h`` as a set of processes."""
        return self.members & other.members

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ",".join(p.name for p in sorted(self.members))
        return f"{self.name}{{{body}}}"


#: A family of destination groups (§3): a set of non-repeated groups.
GroupFamily = FrozenSet[Group]

#: Up to this many groups, ``cyclic_families`` runs the original 2^|G|
#: subset sweep (byte-identical order to the seed enumeration, which the
#: golden fingerprints pin); above it, the output-sensitive simple-cycle
#: sweep of :func:`repro.groups.families.cycle_vertex_sets` takes over —
#: sorted into the same (size, lexicographic) order the sweep produces.
FAMILY_BRUTE_FORCE_LIMIT = 12


class GroupTopology:
    """The destination groups ``G`` over a process set ``P``.

    This object is immutable after construction and memoizes the expensive
    combinatorics (cyclic-family enumeration).

    Attributes:
        processes: the processes of the system.
        groups: the destination groups, sorted deterministically.
    """

    def __init__(
        self, processes: Iterable[ProcessId], groups: Iterable[Group]
    ) -> None:
        self.processes: ProcessSet = pset(processes)
        self.groups: Tuple[Group, ...] = tuple(sorted(set(groups)))
        if not self.groups:
            raise TopologyError("a topology needs at least one group")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise TopologyError(f"duplicate group names: {names}")
        for group in self.groups:
            if not group.members <= self.processes:
                raise TopologyError(
                    f"group {group.name} mentions processes outside the system"
                )
        self._by_name: Dict[str, Group] = {g.name: g for g in self.groups}
        self._by_members: Dict[ProcessSet, Group] = {
            g.members: g for g in self.groups
        }
        self._cyclic_families: Optional[Tuple[GroupFamily, ...]] = None
        self._groups_by_process: Optional[
            Dict[ProcessId, Tuple[Group, ...]]
        ] = None
        self._families_by_process: Optional[
            Dict[ProcessId, Tuple[GroupFamily, ...]]
        ] = None
        self._intersecting_pairs: Optional[
            Tuple[Tuple[Group, Group], ...]
        ] = None

    # -- Lookup -----------------------------------------------------------

    def group(self, name: str) -> Group:
        """The group called ``name`` (raises :class:`TopologyError`)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise TopologyError(f"no group named {name!r}") from None

    def group_with_members(self, members: ProcessSet) -> Optional[Group]:
        """The group whose membership equals ``members``, if any.

        Groups compare by membership, so this lookup is total over ``G``;
        it replaces linear scans on per-message hot paths (e.g. resolving
        ``dst(m)`` back to its destination group).
        """
        return self._by_members.get(members)

    def groups_of(self, p: ProcessId) -> Tuple[Group, ...]:
        """``G(p)``: destination groups that contain ``p`` (§2.2)."""
        index = self._groups_by_process
        if index is None:
            accumulator: Dict[ProcessId, List[Group]] = {}
            for g in self.groups:
                for q in g.members:
                    accumulator.setdefault(q, []).append(g)
            index = {q: tuple(gs) for q, gs in accumulator.items()}
            self._groups_by_process = index
        return index.get(p, ())

    def intersecting_pairs(self) -> Tuple[Tuple[Group, Group], ...]:
        """All unordered pairs of distinct intersecting groups."""
        if self._intersecting_pairs is None:
            self._intersecting_pairs = tuple(
                (g, h)
                for g, h in itertools.combinations(self.groups, 2)
                if g.intersects(h)
            )
        return self._intersecting_pairs

    def intersections(self) -> Tuple[ProcessSet, ...]:
        """The distinct non-empty proper intersections ``g ∩ h``."""
        seen: List[ProcessSet] = []
        for g, h in self.intersecting_pairs():
            shared = g.intersection(h)
            if shared not in seen:
                seen.append(shared)
        return tuple(seen)

    # -- The intersection graph -------------------------------------------

    def intersection_graph(
        self, family: Optional[Iterable[Group]] = None
    ) -> Mapping[Group, FrozenSet[Group]]:
        """Adjacency of the intersection graph of ``family`` (default: G).

        Vertices are groups; an edge links two distinct groups iff they
        intersect (§3, footnote 1).
        """
        vertices = tuple(sorted(set(family))) if family is not None else self.groups
        adjacency: Dict[Group, FrozenSet[Group]] = {}
        for g in vertices:
            adjacency[g] = frozenset(
                h for h in vertices if h != g and g.intersects(h)
            )
        return adjacency

    # -- Cyclic families ----------------------------------------------------

    def cyclic_families(self) -> Tuple[GroupFamily, ...]:
        """``F``: every cyclic family in ``2^G`` (§3), memoized.

        A family is cyclic when its intersection graph is hamiltonian; this
        requires at least three groups (Lemma 21 treats |C| <= 2 apart).

        Small topologies keep the original subset sweep (its enumeration
        order is pinned by golden fingerprints).  Beyond
        :data:`FAMILY_BRUTE_FORCE_LIMIT` groups the sweep's 2^|G| cost is
        prohibitive, so ``F`` is instead read off the simple cycles of
        the intersection graph — a family is cyclic iff it is the vertex
        set of a simple cycle — which is output-sensitive: linear-ish on
        sparse structures (a 400-group ring has exactly one cyclic
        family) and a :class:`TopologyError` on dense ones (a hub clique
        at that size has astronomically many; enumerating them is the
        mistake, not the budget).
        """
        if self._cyclic_families is None:
            from repro.groups.families import (
                cycle_vertex_sets,
                is_cyclic_family,
            )

            if len(self.groups) <= FAMILY_BRUTE_FORCE_LIMIT:
                found: List[GroupFamily] = []
                for size in range(3, len(self.groups) + 1):
                    for combo in itertools.combinations(self.groups, size):
                        family = frozenset(combo)
                        if is_cyclic_family(family):
                            found.append(family)
            else:
                sets = cycle_vertex_sets(dict(self.intersection_graph()))
                found = sorted(
                    sets, key=lambda f: (len(f), tuple(sorted(f)))
                )
            self._cyclic_families = tuple(found)
        return self._cyclic_families

    def families_of_group(self, g: Group) -> Tuple[GroupFamily, ...]:
        """``F(g)``: the cyclic families that contain group ``g``."""
        return tuple(f for f in self.cyclic_families() if g in f)

    def families_of_process(self, p: ProcessId) -> Tuple[GroupFamily, ...]:
        """``F(p)``: families with ``p`` in some proper group intersection.

        Per §3: the cyclic families ``f`` such that there exist distinct
        ``g, h in f`` with ``p in g ∩ h``.  The index over all carrier
        processes is built once (preserving the ``cyclic_families``
        enumeration order per process) — gamma oracles consult this on
        every query, so the former per-call family sweep was a hot spot.
        """
        index = self._families_by_process
        if index is None:
            accumulator: Dict[ProcessId, List[GroupFamily]] = {}
            for family in self.cyclic_families():
                members = sorted(family)
                carriers: set = set()
                for g, h in itertools.combinations(members, 2):
                    carriers |= g.intersection(h)
                for q in carriers:
                    accumulator.setdefault(q, []).append(family)
            index = {q: tuple(fams) for q, fams in accumulator.items()}
            self._families_by_process = index
        return index.get(p, ())

    def cyclic_partners(self, g: Group, p: ProcessId) -> Tuple[Group, ...]:
        """``H(p, g)`` of Lemma 30: groups ``h`` intersecting ``g`` such
        that some family in ``F(p)`` contains both ``g`` and ``h``."""
        partners: List[Group] = []
        for family in self.families_of_process(p):
            if g not in family:
                continue
            for h in family:
                if h != g and g.intersects(h) and h not in partners:
                    partners.append(h)
        return tuple(sorted(partners))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GroupTopology({', '.join(g.name for g in self.groups)})"


def topology_from_indices(
    process_count: int, named_groups: Mapping[str, Sequence[int]]
) -> GroupTopology:
    """Build a topology from raw indices — the common test/bench entry.

    Example::

        topology_from_indices(5, {"g1": [1, 2], "g2": [2, 3]})
    """
    processes = make_processes(process_count)
    groups = [
        Group(name, (processes[i - 1] for i in indices))
        for name, indices in named_groups.items()
    ]
    return GroupTopology(processes, groups)


def paper_figure1_topology() -> GroupTopology:
    """The exact topology of Figure 1 of the paper.

    Five processes and four groups::

        g1 = {p1, p2}   g2 = {p2, p3}   g3 = {p1, p3, p4}   g4 = {p1, p4, p5}

    whose cyclic families are ``f = {g1,g2,g3}``, ``f' = {g1,g3,g4}`` and
    ``f'' = {g1,g2,g3,g4}``.
    """
    return topology_from_indices(
        5,
        {
            "g1": [1, 2],
            "g2": [2, 3],
            "g3": [1, 3, 4],
            "g4": [1, 4, 5],
        },
    )
