"""Topology generators at 100x scale, and the v4 generator-form specs.

The batching/scale PR's topology claims, pinned as invariants at
``k >= 200``: every generator constructs hundreds of groups in
milliseconds, the cyclicity *class* of each shape is what the paper
says it is (rings: one family; chains/disjoint/sparse-overlap: none;
hubs: too dense to enumerate but trivially hamiltonian), and the
intersection graphs stay sparse where the output-sensitive cycle sweep
needs them to.  Plus the spec-addressable API: a recipe round-trips
through JSON unchanged and its scenario hash is stable — the committed
constants below must never drift silently (re-pin them only with a
changelog entry, they are campaign cache keys).
"""

import json

import pytest

from repro.groups.families import intersection_adjacency
from repro.model.errors import SimulationError, TopologyError
from repro.workloads import (
    GENERATORS,
    ScenarioSpec,
    TopologySpec,
    build_generator,
    chain_topology,
    disjoint_topology,
    hub_topology,
    random_sends,
    ring_topology,
    run_scenario,
    sparse_overlap_topology,
)

K = 200


def _degrees(topology):
    adjacency = intersection_adjacency(topology.groups)
    return [len(neighbors) for neighbors in adjacency.values()]


class TestGeneratorInvariantsAtScale:
    def test_ring_200_counts_and_single_cyclic_family(self):
        topo = ring_topology(K)
        assert len(topo.processes) == K
        assert len(topo.groups) == K
        assert all(d == 2 for d in _degrees(topo))
        families = topo.cyclic_families()
        assert len(families) == 1
        assert set(families[0]) == set(topo.groups)

    def test_chain_200_counts_and_no_cyclic_families(self):
        topo = chain_topology(K)
        assert len(topo.processes) == K + 1
        assert len(topo.groups) == K
        assert max(_degrees(topo)) == 2  # a path: end groups have degree 1
        assert topo.cyclic_families() == ()

    def test_disjoint_200_is_edgeless(self):
        topo = disjoint_topology(K, group_size=3)
        assert len(topo.processes) == 3 * K
        assert len(topo.groups) == K
        assert all(d == 0 for d in _degrees(topo))
        assert topo.cyclic_families() == ()

    def test_hub_200_is_hamiltonian_but_unenumerable(self):
        # K200 intersection graph: the complete-graph certificate settles
        # hamiltonicity instantly, while exhaustive family enumeration
        # must refuse (2^200 families) instead of hanging.
        from repro.groups.families import has_hamiltonian_cycle

        topo = hub_topology(K)
        assert len(topo.groups) == K
        adjacency = intersection_adjacency(topo.groups)
        assert all(d == K - 1 for d in _degrees(topo))
        assert has_hamiltonian_cycle(adjacency)
        with pytest.raises(TopologyError):
            topo.cyclic_families()

    def test_sparse_overlap_200_stays_sparse_and_acyclic(self):
        topo = sparse_overlap_topology(K, group_size=3, seed=7)
        assert len(topo.groups) == K
        # Each overlap saves exactly one process over the disjoint layout.
        overlaps = 3 * K - len(topo.processes)
        assert 0 < overlaps < K
        # Consecutive-only sharing: a disjoint union of paths, degree <= 2.
        assert max(_degrees(topo)) <= 2
        assert topo.cyclic_families() == ()

    def test_sparse_overlap_is_seeded(self):
        a = sparse_overlap_topology(K, seed=3)
        b = sparse_overlap_topology(K, seed=3)
        c = sparse_overlap_topology(K, seed=4)
        as_map = lambda t: {  # noqa: E731
            g.name: tuple(sorted(p.index for p in g.members)) for g in t.groups
        }
        assert as_map(a) == as_map(b)
        assert as_map(a) != as_map(c)


class TestGeneratorRegistry:
    def test_every_registered_kind_builds(self):
        recipes = {
            "ring": {"k": K},
            "chain": {"k": K},
            "disjoint": {"k": K},
            "hub": {"k": K},
            "random": {"seed": 1, "process_count": 40, "group_count": 20},
            "sparse_overlap": {"k": K},
        }
        assert set(recipes) == set(GENERATORS)
        for kind, params in recipes.items():
            topology = build_generator({"kind": kind, **params})
            assert len(topology.groups) >= 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown topology generator"):
            build_generator({"kind": "torus", "k": 4})

    def test_missing_kind_rejected(self):
        with pytest.raises(SimulationError, match="kind"):
            build_generator({"k": 4})

    def test_bad_parameters_rejected(self):
        with pytest.raises(SimulationError, match="bad parameters"):
            build_generator({"kind": "ring", "k": 4, "sides": 6})


class TestGeneratorSpecs:
    def test_generator_spec_builds_the_same_topology_as_explicit(self):
        recipe = {"kind": "ring", "k": K}
        by_recipe = TopologySpec.from_generator(recipe).build()
        explicit = TopologySpec.capture(ring_topology(K)).build()
        as_map = lambda t: {  # noqa: E731
            g.name: tuple(sorted(p.index for p in g.members)) for g in t.groups
        }
        assert as_map(by_recipe) == as_map(explicit)

    @pytest.mark.parametrize(
        "recipe",
        [
            {"kind": "ring", "k": K},
            {"kind": "sparse_overlap", "k": K, "group_size": 4, "seed": 9},
            {"kind": "random", "seed": 2, "process_count": 30, "group_count": 10},
        ],
    )
    def test_round_trip_through_json(self, recipe):
        spec = TopologySpec.from_generator(recipe)
        assert spec.groups == ()
        payload = json.loads(json.dumps(spec.to_json()))
        assert TopologySpec.from_json(payload) == spec
        assert payload["generator"] == recipe

    def test_hash_ignores_recipe_key_order(self):
        a = ScenarioSpec(topology=TopologySpec.from_generator({"kind": "ring", "k": K}))
        b = ScenarioSpec(
            topology=TopologySpec(
                process_count=K, generator=tuple(sorted({"k": K, "kind": "ring"}.items()))
            )
        )
        assert a.spec_hash() == b.spec_hash()

    def test_generator_and_explicit_specs_hash_differently(self):
        # The recipe is the content, not the expansion: addressing the
        # same topology by map and by recipe are distinct scenarios.
        by_recipe = ScenarioSpec(topology=TopologySpec.from_generator({"kind": "ring", "k": K}))
        explicit = ScenarioSpec(topology=TopologySpec.capture(ring_topology(K)))
        assert by_recipe.spec_hash() != explicit.spec_hash()

    def test_generator_spec_hash_is_frozen(self):
        # Campaign caches key on this address: silent drift invalidates
        # every stored sweep.  Re-pin only with a changelog entry (last:
        # spec schema 8).
        spec = ScenarioSpec(
            topology=TopologySpec.from_generator({"kind": "ring", "k": K})
        )
        assert spec.spec_hash() == (
            "2a7bb9ae89c5d1e481d518018b4af737c99fb28e9b185136227d869c483cf979"
        )

    def test_ring200_runs_on_the_engine(self):
        # One 200-cycle is one cyclic family: the engine has to find it
        # from the cycle's certificate, a 2^|G| subset sweep never returns.
        topology_spec = TopologySpec.from_generator({"kind": "ring", "k": K})
        topology = topology_spec.build()
        sends = tuple(random_sends(topology, 10, seed=5, spread_rounds=10))
        result = run_scenario(
            ScenarioSpec(
                topology=topology_spec, sends=sends, seed=5, max_rounds=4000
            )
        )
        assert not result.truncated
        assert len(result.record.deliveries) == sum(
            len(topology.group(s.group).members) for s in sends
        )

    def test_explicit_map_specs_still_load_v1_payloads(self):
        # A v1-style payload (no generator key) must keep round-tripping.
        topo = chain_topology(3)
        spec = TopologySpec.capture(topo)
        payload = json.loads(json.dumps(spec.to_json()))
        assert "generator" not in payload
        assert TopologySpec.from_json(payload) == spec
