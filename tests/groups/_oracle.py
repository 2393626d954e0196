"""Retired group-combinatorics bodies, kept as test references.

* ``set_faulty_at`` / ``faulty_edges_at`` — for sensitivity tests, the
  former ``FailurePattern.set_faulty_at`` and the ``faulty_edges_at`` that
  asked it, verbatim apart from the method becoming a function.  It
  reads ``is_alive``, so a member that is down but will rejoin makes
  its intersection faulty for the length of the outage; ``GammaOracle``
  then excludes the family forever and Ordering breaks after the rejoin.
  ``tests/faults/test_nemesis.py`` patches it back in to show the
  nemesis grid catches that defect.

Retired cycle walks, the references for ``test_family_algorithms.py``'s
differential:

* ``hamiltonian_cycles`` / ``_extend_cycle`` — the recursive
  enumeration, verbatim apart from its per-family memo (which handed
  out the ``Group`` objects of whichever topology asked first).
* ``has_hamiltonian_cycle`` — certificates, then an iterative
  first-cycle search rooted at the smallest vertex.
* ``cycle_vertex_sets`` — one rooted search per vertex over strictly
  larger vertices, sharing one work budget.

All three now run as ``repro.groups.families._simple_cycles``.
"""

import itertools
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.groups.families import (
    DEFAULT_CYCLE_BUDGET,
    Edge,
    _connected,
    _edge,
    intersection_adjacency,
)
from repro.groups.topology import Group, GroupFamily
from repro.model.errors import TopologyError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId


def set_faulty_at(
    pattern: FailurePattern, group: Iterable[ProcessId], t: Time
) -> bool:
    """Whether *every* process of ``group`` is crashed at time ``t``.

    This is the building block of group-intersection faultiness: the
    paper says ``g ∩ h`` is faulty at ``t`` when all its members are.
    An empty group is vacuously faulty.
    """
    return all(not pattern.is_alive(p, t) for p in group)


def faulty_edges_at(
    family: GroupFamily, pattern: FailurePattern, t: Time
) -> FrozenSet[Edge]:
    """Edges ``(g, h)`` of the family whose intersection is crashed at ``t``."""
    dead: Set[Edge] = set()
    for g, h in itertools.combinations(sorted(family), 2):
        shared = g.intersection(h)
        if shared and set_faulty_at(pattern, shared, t):
            dead.add(_edge(g, h))
    return frozenset(dead)


def hamiltonian_cycles(family: GroupFamily) -> Tuple[Tuple[Group, ...], ...]:
    """All hamiltonian cycles of the family's intersection graph.

    Each cycle is returned once, canonically: as an *open* vertex sequence
    ``(v0, v1, ..., vK-1)`` starting at the smallest group, with
    ``v1 < vK-1`` fixing the direction.
    Families with fewer than three groups have no hamiltonian cycle.
    """
    vertices = sorted(family)
    cycles: List[Tuple[Group, ...]] = []
    if len(vertices) >= 3:
        adjacency = intersection_adjacency(vertices)
        start = vertices[0]
        _extend_cycle(start, [start], {start}, adjacency, len(vertices), cycles)
    return tuple(cycles)


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
