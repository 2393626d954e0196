"""Cyclic families, closed paths and family faultiness (§3, §5.2).

A family ``f`` of destination groups is *cyclic* when its intersection
graph is hamiltonian.  ``cpaths(f)`` are the closed paths visiting all its
groups — i.e. all rooted, oriented traversals of the hamiltonian cycles.
A cyclic family is *faulty at time t* when every closed path visits an
edge ``(g, h)`` with ``g ∩ h`` faulty at ``t`` (equivalently: every
hamiltonian cycle, as an edge set, contains a dead edge).

§5.2 additionally needs path *equivalence* (same edge set) and *direction*
(±1 w.r.t. a canonical representation); both are provided here.
"""

from __future__ import annotations

import itertools
import math
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.groups.topology import Group, GroupFamily
from repro.model.errors import TopologyError
from repro.model.failures import FailurePattern, Time

#: A closed path: a group sequence with ``path[0] == path[-1]`` whose
#: consecutive groups intersect, visiting every group of the family once.
ClosedPath = Tuple[Group, ...]

#: An undirected edge of the intersection graph, canonically ordered.
Edge = Tuple[Group, Group]

#: ``hamiltonian_cycles`` per family, as positions in ``sorted(family)``:
#: positions, not groups, so two topologies whose families share their
#: members each get their own ``Group`` objects back.
_CYCLE_SHAPES: Dict[GroupFamily, Tuple[Tuple[int, ...], ...]] = {}
_CYCLICITY_CACHE: Dict[GroupFamily, bool] = {}
_CHORDLESS_CACHE: Dict[GroupFamily, bool] = {}

#: Work budget of the cycle walk, in neighbor inspections.  Sparse
#: intersection graphs (rings, chains, bounded-overlap randoms) use a
#: vanishing fraction of it; dense ones (hub cliques) have exponentially
#: many cycles and get a :class:`TopologyError` instead of a multi-hour
#: walk.  Charging inspections, not extensions, keeps the refusal itself
#: O(budget): an extension on a 200-clique scans ~200 neighbors.
DEFAULT_CYCLE_BUDGET = 2_000_000


def _edge(g: Group, h: Group) -> Edge:
    """Canonical (sorted) representation of an undirected edge."""
    return (g, h) if g < h else (h, g)


def _connected(adjacency: Dict[Group, Set[Group]]) -> bool:
    """Whether the graph is connected (empty graphs count as connected)."""
    if not adjacency:
        return True
    start = next(iter(adjacency))
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(adjacency)


def intersection_adjacency(family: Iterable[Group]) -> Dict[Group, Set[Group]]:
    """Adjacency sets of the intersection graph of ``family``."""
    vertices = sorted(set(family))
    return {
        g: {h for h in vertices if h != g and g.intersects(h)} for g in vertices
    }


def _simple_cycles(
    vertices: Sequence[Group],
    adjacency: Dict[Group, Set[Group]],
    budget: float,
    roots: Optional[int] = None,
) -> Iterator[List[int]]:
    """Every simple cycle (length >= 3) of the graph, from its smallest vertex.

    The one graph walk of this module; ``vertices`` is ``sorted(adjacency)``
    and cycles come out as positions in it.  Rooted at each of the
    ``roots`` smallest vertices in turn (all by default), a depth-first
    search whose interior vertices are larger than the root explores only
    simple paths, so every cycle is found from exactly one root — once
    per direction.  Neighbours are tried in sorted order; the yielded
    list is the walk's live path ``[root, ...]`` (copy it to keep it).

    Each neighbour inspection costs one unit of ``budget`` (see
    :data:`DEFAULT_CYCLE_BUDGET`); past it the walk raises
    :class:`TopologyError` instead of hanging.
    """
    index = {v: i for i, v in enumerate(vertices)}
    neighbors = [sorted(index[u] for u in adjacency[v]) for v in vertices]
    work = 0
    for root in range(len(vertices))[:roots]:
        path = [root]
        on_path = {root}
        stack = [iter(neighbors[root])]
        while stack:
            advanced = False
            for nxt in stack[-1]:
                work += 1
                if work > budget:
                    raise TopologyError(
                        f"cycle walk exceeded {budget} steps: the "
                        f"intersection graph ({len(vertices)} groups) is too "
                        "dense and irregular to walk exhaustively — use a "
                        "sparser topology"
                    )
                if nxt <= root:
                    if nxt == root and len(path) >= 3:
                        yield path
                    continue
                if nxt in on_path:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                stack.append(iter(neighbors[nxt]))
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())


def hamiltonian_cycles(family: GroupFamily) -> Tuple[Tuple[Group, ...], ...]:
    """All hamiltonian cycles of the family's intersection graph.

    Each cycle is returned once, canonically: as an *open* vertex sequence
    ``(v0, v1, ..., vK-1)`` starting at the smallest group, with
    ``v1 < vK-1`` fixing the direction, in the walk's (sorted-neighbour,
    depth-first) order, with no budget.  The cycles are built from
    ``family``'s own groups; only their positions are memoized.  Families
    with fewer than three groups have no hamiltonian cycle.
    """
    vertices = sorted(family)
    shapes = _CYCLE_SHAPES.get(family)
    if shapes is None:
        adjacency = intersection_adjacency(vertices)
        shapes = tuple(
            tuple(path)
            for path in _simple_cycles(vertices, adjacency, math.inf, 1)
            if len(path) == len(vertices) and path[1] < path[-1]
        )
        _CYCLE_SHAPES[family] = shapes
    return tuple(tuple(vertices[i] for i in shape) for shape in shapes)


def has_hamiltonian_cycle(
    adjacency: Dict[Group, Set[Group]], budget: int = DEFAULT_CYCLE_BUDGET
) -> bool:
    """Whether the graph is hamiltonian — decision only, no enumeration.

    Cheap certificates settle the common shapes without search: a vertex
    of degree < 2 or a disconnected graph cannot be hamiltonian; a
    complete graph, a connected 2-regular graph (a single cycle) and any
    graph meeting Dirac's bound (min degree >= n/2, n >= 3) always are.
    Only the residual cases walk the cycles through the smallest vertex,
    and the walk stops at the *first* hamiltonian one instead of
    enumerating all of them — the difference between O(1)-ish and
    exponential on the dense families that :func:`hamiltonian_cycles`
    cannot touch.
    """
    n = len(adjacency)
    if n < 3:
        return False
    degrees = [len(neighbors) for neighbors in adjacency.values()]
    if min(degrees) < 2:
        return False
    if not _connected(adjacency):
        return False
    if all(d == n - 1 for d in degrees):
        return True
    if all(d == 2 for d in degrees):
        return True
    if 2 * min(degrees) >= n:
        return True
    walk = _simple_cycles(sorted(adjacency), adjacency, budget, roots=1)
    return any(len(path) == n for path in walk)


def cycle_vertex_sets(
    adjacency: Dict[Group, Set[Group]], budget: int = DEFAULT_CYCLE_BUDGET
) -> Set[FrozenSet[Group]]:
    """Vertex sets of all simple cycles (length >= 3) of the graph.

    This is exactly the set of cyclic families of a topology: a family is
    cyclic iff its induced intersection subgraph is hamiltonian, and a
    hamiltonian cycle of an induced subgraph is a simple cycle of the
    whole graph (and vice versa, taking the cycle's vertex set as the
    family).  The walk is output-sensitive, so sparse graphs (rings: one
    cycle; chains: none) cost O(V * E) instead of the 2^|G| subset
    sweep.  Dense graphs have exponentially many cycles by nature; the
    work ``budget`` turns that into a :class:`TopologyError` rather than
    a hang.
    """
    vertices = sorted(adjacency)
    found = set(map(frozenset, _simple_cycles(vertices, adjacency, budget)))
    return {frozenset(vertices[i] for i in cycle) for cycle in found}


def is_cyclic_family(family: GroupFamily) -> bool:
    """Whether the intersection graph of ``family`` is hamiltonian (§3).

    Decided via :func:`has_hamiltonian_cycle` (certificates plus
    early-exit walk) and memoized — unlike :func:`hamiltonian_cycles`
    this never enumerates, so it stays fast on dense families like hub
    cliques where the cycle count is factorial.
    """
    cached = _CYCLICITY_CACHE.get(family)
    if cached is None:
        cached = has_hamiltonian_cycle(intersection_adjacency(family))
        _CYCLICITY_CACHE[family] = cached
    return cached


def is_chordless_cycle_family(family: GroupFamily) -> bool:
    """Whether the family's intersection graph is exactly a cycle.

    A connected graph in which every vertex has degree two is a single
    cycle: such families have a unique hamiltonian cycle (up to rotation
    and direction) and no chords.  Chordless families are the granularity
    at which Algorithm 1 derives its coordination wait-sets (see
    :func:`repro.detectors.cyclicity.gamma_groups`): a group intersection
    ``g ∩ h`` shared by any cyclic family always lies on some chordless
    cycle (shortcut the cycle through chords until none remain), and the
    death of ``g ∩ h`` makes every chordless family through that edge
    faulty — which is what unblocks the waiters (Lemma 25).

    A 2-regular graph is hamiltonian iff it is connected, so the check
    is linear in the family size; results are memoized because this
    predicate sits on the gamma-query hot path.
    """
    cached = _CHORDLESS_CACHE.get(family)
    if cached is not None:
        return cached
    if len(family) < 3:
        result = False
    else:
        adjacency = intersection_adjacency(family)
        result = all(
            len(neighbors) == 2 for neighbors in adjacency.values()
        ) and _connected(adjacency)
    _CHORDLESS_CACHE[family] = result
    return result


def cpaths(family: GroupFamily) -> Tuple[ClosedPath, ...]:
    """``cpaths(f)``: every closed path visiting all groups of ``f``.

    This enumerates every rooted, oriented traversal of every hamiltonian
    cycle: for a cycle of length K this yields 2K closed paths (K starting
    points x 2 directions), matching the paper's example where
    ``g3 g1 g2 g3`` and ``g1 g3 g2 g1`` are distinct but equivalent paths.
    """
    paths: List[ClosedPath] = []
    for cycle in hamiltonian_cycles(family):
        k = len(cycle)
        for direction in (1, -1):
            ordered = cycle if direction == 1 else tuple(reversed(cycle))
            for offset in range(k):
                rotated = ordered[offset:] + ordered[:offset]
                paths.append(rotated + (rotated[0],))
    return tuple(paths)


def path_edges(path: ClosedPath) -> FrozenSet[Edge]:
    """The undirected edges visited by a closed path."""
    return frozenset(_edge(path[i], path[i + 1]) for i in range(len(path) - 1))


def path_direction(path: ClosedPath) -> int:
    """``dir(π)``: +1 when π follows the canonical cycle orientation.

    The canonical representation of the cycle is the one produced by
    :func:`hamiltonian_cycles`; a path traversing its edges in that
    rotational order is clockwise (+1), the reverse is -1.
    """
    open_path, edges = path[:-1], path_edges(path)
    for cycle in hamiltonian_cycles(frozenset(open_path)):
        if path_edges(cycle + (cycle[0],)) != edges:
            continue
        offset = cycle.index(open_path[0])
        if open_path == cycle[offset:] + cycle[:offset]:
            return 1
        if open_path == cycle[offset::-1] + cycle[:offset:-1]:
            return -1
    raise TopologyError(f"not a closed path of its family: {path}")


def faulty_edges_at(
    family: GroupFamily, pattern: FailurePattern, t: Time
) -> FrozenSet[Edge]:
    """Edges ``(g, h)`` of the family whose intersection is faulty at ``t``.

    Faulty means crashed by ``t`` and never recovering: under the
    crash–recovery overlay a member that is down but will rejoin is
    correct, so its intersection is not faulty while it is down.
    """
    dead: Set[Edge] = set()
    for g, h in itertools.combinations(sorted(family), 2):
        shared = g.intersection(h)
        if not shared:
            continue
        died = pattern.crash_time_of_set(shared)
        if died is not None and died <= t:
            dead.add(_edge(g, h))
    return frozenset(dead)


def family_faulty_at(
    family: GroupFamily, pattern: FailurePattern, t: Time
) -> bool:
    """Whether a cyclic family is *faulty at time t* (§3).

    True when every closed path of the family visits some edge whose group
    intersection is faulty at ``t`` (see :func:`faulty_edges_at`).  Equivalent paths visit the
    same edges, so this is a statement about hamiltonian cycles — and
    "every hamiltonian cycle contains a dead edge" is the same as "the
    intersection graph with the dead edges removed is not hamiltonian",
    which :func:`has_hamiltonian_cycle` decides without enumerating the
    (possibly factorial) cycle set.
    """
    if not is_cyclic_family(family):
        raise TopologyError("faultiness is only defined for cyclic families")
    dead = faulty_edges_at(family, pattern, t)
    if not dead:
        return False
    adjacency = intersection_adjacency(family)
    alive = {
        g: {h for h in neighbors if _edge(g, h) not in dead}
        for g, neighbors in adjacency.items()
    }
    return not has_hamiltonian_cycle(alive)


def family_fault_time(
    family: GroupFamily, pattern: FailurePattern
) -> Optional[Time]:
    """The first time at which the family is faulty, if ever.

    Computed by checking faultiness at each crash (and recovery) time
    of the pattern — faultiness can only change at those instants.
    """
    instants = list(pattern.change_instants())
    for t in instants:
        if family_faulty_at(family, pattern, t):
            return t
    return None
