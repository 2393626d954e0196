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
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.groups.topology import Group, GroupFamily
from repro.model.errors import TopologyError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessSet

#: A closed path: a group sequence with ``path[0] == path[-1]`` whose
#: consecutive groups intersect, visiting every group of the family once.
ClosedPath = Tuple[Group, ...]

#: An undirected edge of the intersection graph, canonically ordered.
Edge = Tuple[Group, Group]

_CYCLE_CACHE: Dict[GroupFamily, Tuple[Tuple[Group, ...], ...]] = {}
_CYCLICITY_CACHE: Dict[GroupFamily, bool] = {}
_CHORDLESS_CACHE: Dict[GroupFamily, bool] = {}

#: Work budget (neighbor inspections) for the output-sensitive cycle
#: sweeps.  Sparse intersection graphs (rings, chains, bounded-overlap
#: randoms) finish in a vanishing fraction of this; dense graphs (hub
#: cliques) have exponentially many cyclic families and exhaust it —
#: callers get a :class:`TopologyError` instead of a silent multi-hour
#: enumeration.  Counting inspections rather than path extensions keeps
#: the worst-case cost of the refusal itself proportional to the budget
#: (an extension on a 200-clique scans ~200 neighbors; charging only the
#: extension made hitting the cap two orders of magnitude slower than
#: the cap suggests).
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


def hamiltonian_cycles(family: GroupFamily) -> Tuple[Tuple[Group, ...], ...]:
    """All hamiltonian cycles of the family's intersection graph.

    Each cycle is returned once, canonically: as an *open* vertex sequence
    ``(v0, v1, ..., vK-1)`` starting at the smallest group, with
    ``v1 < vK-1`` fixing the direction.  Results are memoized per family.
    Families with fewer than three groups have no hamiltonian cycle.
    """
    if family in _CYCLE_CACHE:
        return _CYCLE_CACHE[family]

    vertices = sorted(family)
    cycles: List[Tuple[Group, ...]] = []
    if len(vertices) >= 3:
        adjacency = intersection_adjacency(vertices)
        start = vertices[0]
        _extend_cycle(start, [start], {start}, adjacency, len(vertices), cycles)
    result = tuple(cycles)
    _CYCLE_CACHE[family] = result
    return result


def _extend_cycle(
    start: Group,
    path: List[Group],
    visited: Set[Group],
    adjacency: Dict[Group, Set[Group]],
    total: int,
    out: List[Tuple[Group, ...]],
) -> None:
    """Depth-first search for hamiltonian cycles rooted at ``start``."""
    current = path[-1]
    if len(path) == total:
        if start in adjacency[current] and path[1] < path[-1]:
            out.append(tuple(path))
        return
    for neighbor in sorted(adjacency[current]):
        if neighbor not in visited:
            # Prune mirrored traversals early: once two vertices are on the
            # path the direction constraint path[1] < path[-1] is checked at
            # the end; exploring both directions is still necessary for
            # correctness, so no pruning beyond the visited set.
            path.append(neighbor)
            visited.add(neighbor)
            _extend_cycle(start, path, visited, adjacency, total, out)
            visited.remove(neighbor)
            path.pop()


def has_hamiltonian_cycle(
    adjacency: Dict[Group, Set[Group]], budget: int = DEFAULT_CYCLE_BUDGET
) -> bool:
    """Whether the graph is hamiltonian — decision only, no enumeration.

    Cheap certificates settle the common shapes without search: a vertex
    of degree < 2 or a disconnected graph cannot be hamiltonian; a
    complete graph, a connected 2-regular graph (a single cycle) and any
    graph meeting Dirac's bound (min degree >= n/2, n >= 3) always are.
    Only the residual cases run a depth-first search, and that search
    returns on the *first* cycle found instead of enumerating all of
    them — the difference between O(1)-ish and exponential on the dense
    families that :func:`hamiltonian_cycles` cannot touch.
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
    vertices = sorted(adjacency)
    start = vertices[0]
    neighbors = {v: sorted(adjacency[v]) for v in vertices}
    # Iterative DFS for one hamiltonian cycle rooted at the smallest
    # vertex; an explicit stack keeps deep paths off the Python stack.
    path = [start]
    on_path = {start}
    stack = [iter(neighbors[start])]
    work = 0
    while stack:
        advanced = False
        for nxt in stack[-1]:
            work += 1
            if work > budget:
                raise TopologyError(
                    f"hamiltonicity search exceeded {budget} steps; "
                    "the intersection graph is too dense and irregular "
                    "for the certificate fast paths"
                )
            if nxt in on_path:
                if nxt == start and len(path) == n:
                    return True
                continue
            path.append(nxt)
            on_path.add(nxt)
            stack.append(iter(neighbors[nxt]))
            advanced = True
            break
        if not advanced:
            stack.pop()
            on_path.discard(path.pop())
    return False


def cycle_vertex_sets(
    adjacency: Dict[Group, Set[Group]], budget: int = DEFAULT_CYCLE_BUDGET
) -> Set[FrozenSet[Group]]:
    """Vertex sets of all simple cycles (length >= 3) of the graph.

    This is exactly the set of cyclic families of a topology: a family is
    cyclic iff its induced intersection subgraph is hamiltonian, and a
    hamiltonian cycle of an induced subgraph is a simple cycle of the
    whole graph (and vice versa, taking the cycle's vertex set as the
    family).  Enumeration is output-sensitive — rooted at each vertex in
    turn, a DFS over strictly-larger vertices explores only simple paths,
    so sparse graphs (rings: one cycle; chains: none) cost O(V * E)
    instead of the 2^|G| subset sweep.  Dense graphs have exponentially
    many cycles by nature; the work ``budget`` turns that into a
    :class:`TopologyError` rather than a hang.
    """
    vertices = sorted(adjacency)
    index = {v: i for i, v in enumerate(vertices)}
    neighbors = {v: sorted(adjacency[v]) for v in vertices}
    found: Set[FrozenSet[Group]] = set()
    work = 0
    for i, root in enumerate(vertices):
        # Enumerate the simple cycles whose smallest vertex is ``root``:
        # interior path vertices are restricted to indices > i, so every
        # cycle is discovered from exactly one root (twice, once per
        # direction — the frozenset dedups).
        path = [root]
        on_path = {root}
        stack = [iter(neighbors[root])]
        while stack:
            advanced = False
            for nxt in stack[-1]:
                work += 1
                if work > budget:
                    raise TopologyError(
                        f"cyclic-family enumeration exceeded {budget} steps: "
                        f"the intersection graph ({len(vertices)} groups) is "
                        "too dense for exhaustive family enumeration — use a "
                        "sparser topology or the per-family predicates "
                        "(is_cyclic_family, has_hamiltonian_cycle)"
                    )
                if index[nxt] <= i:
                    if nxt == root and len(path) >= 3:
                        found.add(frozenset(path))
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
    return found


def is_cyclic_family(family: GroupFamily) -> bool:
    """Whether the intersection graph of ``family`` is hamiltonian (§3).

    Decided via :func:`has_hamiltonian_cycle` (certificates plus
    early-exit search) and memoized — unlike :func:`hamiltonian_cycles`
    this never enumerates, so it stays fast on dense families like hub
    cliques where the cycle count is factorial.
    """
    cached = _CYCLICITY_CACHE.get(family)
    if cached is None:
        if family in _CYCLE_CACHE:
            cached = bool(_CYCLE_CACHE[family])
        else:
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


def paths_equivalent(path_a: ClosedPath, path_b: ClosedPath) -> bool:
    """``π ≡ π'``: the two closed paths visit the same edges (§5.2)."""
    return path_edges(path_a) == path_edges(path_b)


def path_direction(path: ClosedPath) -> int:
    """``dir(π)``: +1 when π follows the canonical cycle orientation.

    The canonical representation of the cycle is the one produced by
    :func:`hamiltonian_cycles`; a path traversing its edges in that
    rotational order is clockwise (+1), the reverse is -1.
    """
    family = frozenset(path[:-1])
    open_path = path[:-1]
    for cycle in hamiltonian_cycles(family):
        if path_edges(path) != path_edges(cycle + (cycle[0],)):
            continue
        k = len(cycle)
        start = open_path[0]
        if start not in cycle:
            continue
        offset = cycle.index(start)
        forward = tuple(cycle[(offset + i) % k] for i in range(k))
        if open_path == forward:
            return 1
        backward = tuple(cycle[(offset - i) % k] for i in range(k))
        if open_path == backward:
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


def family_eventually_faulty(
    family: GroupFamily, pattern: FailurePattern
) -> bool:
    """Whether the family becomes faulty at some time under ``pattern``.

    Evaluated on the suffix after the last alive-set change, so a
    family whose members all *recover* is (correctly) not eventually
    faulty.
    """
    horizon = max(pattern.change_instants(), default=0)
    return family_faulty_at(family, pattern, horizon)


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


def family_name(family: GroupFamily) -> str:
    """Deterministic human-readable name, e.g. ``{g1,g2,g3}``."""
    return "{" + ",".join(g.name for g in sorted(family, key=lambda g: g.name)) + "}"
