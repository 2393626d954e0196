"""Tests for Algorithm 5: the CHT-style emulated Omega_{g∩h}."""

import pytest

from repro.detectors.base import BOTTOM
from repro.detectors.validation import check_omega
from repro.emulation.omega_extraction import OmegaExtraction
from repro.groups.topology import topology_from_indices
from repro.model.errors import DetectorError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset

TOPO = topology_from_indices(4, {"g": [1, 2, 3], "h": [2, 3, 4]})
PROCS = make_processes(4)
P1, P2, P3, P4 = PROCS


def test_disjoint_groups_rejected():
    disjoint = topology_from_indices(4, {"g": [1, 2], "h": [3, 4]})
    with pytest.raises(DetectorError):
        OmegaExtraction(
            disjoint, failure_free(pset(PROCS)), "g", "h"
        )


def test_bottom_outside_scope():
    ext = OmegaExtraction(TOPO, failure_free(pset(PROCS)), "g", "h", seed=1)
    assert ext.query(P1, 0) is BOTTOM


def test_configuration_roots_have_textbook_valencies():
    """J_0 (all to g) is g-valent, J_v (all to h) is h-valent, and some
    configuration in between is bivalent or the chain flips univalently —
    the premise of Proposition 70."""
    ext = OmegaExtraction(TOPO, failure_free(pset(PROCS)), "g", "h", seed=2)
    ext.run(4)
    first = ext.root_valency(ext.configs[0])
    last = ext.root_valency(ext.configs[-1])
    assert first == frozenset(("g",))
    assert last == frozenset(("h",))


def test_failure_free_members_agree_on_a_correct_leader():
    ext = OmegaExtraction(TOPO, failure_free(pset(PROCS)), "g", "h", seed=3)
    ext.run(4)
    leaders = {p: ext.query(p, ext.time) for p in (P2, P3)}
    assert leaders[P2] == leaders[P3]
    assert leaders[P2] in ext.scope


def test_leader_converges_after_member_crash():
    pattern = crash_pattern(pset(PROCS), {P2: 3})
    ext = OmegaExtraction(TOPO, pattern, "g", "h", seed=4)
    history = []
    for r in range(10):
        ext.tick()
        if r >= 6:
            history.append((P3, ext.time, ext.query(P3, ext.time)))
    assert check_omega(history, pattern, ext.scope) == []
    assert history[-1][2] == P3


def test_singleton_intersection_is_trivial():
    topo = topology_from_indices(3, {"g": [1, 2], "h": [2, 3]})
    procs = make_processes(3)
    ext = OmegaExtraction(
        topo, failure_free(pset(procs)), "g", "h", seed=5, max_depth=4
    )
    ext.run(3)
    assert ext.query(procs[1], ext.time) == procs[1]


def test_alive_view_tracks_crashes():
    pattern = crash_pattern(pset(PROCS), {P4: 2})
    ext = OmegaExtraction(TOPO, pattern, "g", "h", seed=6)
    ext.run(8)
    assert P4 not in ext._alive_view()
    assert P2 in ext._alive_view()
