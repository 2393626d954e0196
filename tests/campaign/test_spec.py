"""ScenarioSpec: value semantics, hashing, JSON round-trip."""

import json
from dataclasses import replace

import pytest

from repro._content import content_hash
from repro.groups.topology import paper_figure1_topology
from repro.model.errors import SimulationError
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import chain_topology, ring_topology


def _spec(**overrides):
    topo = chain_topology(2)
    procs = make_processes(3)
    pattern = crash_pattern(pset(procs), {procs[2]: 7})
    defaults = dict(seed=3, variant="strict", gamma_lag=1, max_rounds=50)
    defaults.update(overrides)
    return ScenarioSpec.capture(
        topo, pattern, [Send(1, "g1", 0, "pay"), Send(3, "g2", 2)], **defaults
    )


class TestTopologySpec:
    def test_capture_build_round_trip(self):
        topo = ring_topology(4)
        spec = TopologySpec.capture(topo)
        rebuilt = spec.build()
        assert TopologySpec.capture(rebuilt) == spec
        assert {g.name for g in rebuilt.groups} == {g.name for g in topo.groups}
        assert len(rebuilt.processes) == len(topo.processes)

    def test_canonical_group_order(self):
        a = TopologySpec(3, (("g1", (1, 2)), ("g2", (2, 3))))
        b = TopologySpec.from_json(
            {"process_count": 3, "groups": {"g2": [2, 3], "g1": [1, 2]}}
        )
        assert a == b


class TestScenarioSpec:
    def test_specs_are_hashable_values(self):
        assert _spec() == _spec()
        assert hash(_spec()) == hash(_spec())
        assert len({_spec(), _spec(), _spec(seed=4)}) == 2

    def test_json_round_trip(self):
        spec = _spec()
        clone = ScenarioSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()
        assert clone.sends == spec.sends  # payloads survive

    def test_hash_is_content_addressed(self):
        assert _spec().spec_hash() == _spec().spec_hash()
        assert _spec().spec_hash() != _spec(seed=99).spec_hash()
        assert _spec().spec_hash() != _spec(variant="vanilla").spec_hash()

    def test_label_excluded_from_identity(self):
        named = replace(_spec(), name="row-7")
        assert named == _spec()
        assert named.spec_hash() == _spec().spec_hash()
        assert named.name == "row-7"

    def test_build_pattern_restores_crashes(self):
        spec = _spec()
        pattern = spec.build_pattern()
        procs = make_processes(3)
        assert pattern.crash_times == {procs[2]: 7}
        assert pattern.processes == pset(procs)

    def test_capture_defaults_match_runner_defaults(self):
        topo = chain_topology(2)
        pattern = failure_free(pset(make_processes(3)))
        spec = ScenarioSpec.capture(topo, pattern)
        assert (spec.seed, spec.variant, spec.backend) == (0, "vanilla", "engine")
        assert spec.max_rounds == 600
        assert spec.crashes == () and spec.sends == ()


class TestWireForm:
    """The address is the hash of the wire form minus the label."""

    FIGURE1 = ScenarioSpec(topology=TopologySpec.capture(paper_figure1_topology()))

    def test_every_field_is_on_the_wire(self):
        assert self.FIGURE1.to_json() == {
            "backend": "engine",
            "crashes": [],
            "delay_model": None,
            "faults": None,
            "gamma_lag": 0,
            "max_rounds": 600,
            "name": "",
            "quirks": [],
            "schema": 8,
            "seed": 0,
            "sends": [],
            "topology": {
                "groups": {"g1": [1, 2], "g2": [2, 3], "g3": [1, 3, 4], "g4": [1, 4, 5]},
                "process_count": 5,
            },
            "variant": "vanilla",
        }

    def test_the_address_is_pinned(self):
        # Moves only with a schema bump; re-pin with a changelog entry.
        assert self.FIGURE1.spec_hash() == (
            "802e2e5051bf98ac8b671d135c7d38db3904143197d33f17c696a8b0bf36238d"
        )

    def test_the_label_is_the_one_key_left_out(self):
        for spec in (self.FIGURE1, replace(_spec(), name="row-7")):
            body = spec.to_json()
            del body["name"]
            assert spec.spec_hash() == content_hash(body)

    def test_a_schema_6_payload_is_rejected(self):
        payload = self.FIGURE1.to_json()
        payload["schema"] = 6
        with pytest.raises(SimulationError, match="schema 6.*schema 8"):
            ScenarioSpec.from_json(payload)


class TestLoaderFailsLoudly:
    """``from_json`` must not silently load what it cannot represent: a
    payload of another schema would come back under a different content
    address than the one it was stored with."""

    def test_newer_schema_is_rejected(self):
        # Older and newer alike: any schema but 8.
        for schema in (None, 1, 6, 7, 9):
            payload = _spec().to_json()
            payload["schema"] = schema
            with pytest.raises(SimulationError, match="schema"):
                ScenarioSpec.from_json(payload)

    def test_every_key_is_required(self):
        for key in _spec().to_json():
            payload = _spec().to_json()
            del payload[key]
            with pytest.raises((KeyError, SimulationError)):
                ScenarioSpec.from_json(payload)

    def test_an_unknown_key_is_rejected(self):
        # An extra key would load under an address that is not the hash
        # of the payload's own body: a stale schema-7 ``clock``, say.
        for key in ("clock", "extra"):
            payload = _spec().to_json()
            payload[key] = "virtual"
            with pytest.raises(SimulationError, match=key):
                ScenarioSpec.from_json(payload)
        for topology in (
            TopologySpec.capture(chain_topology(2)),
            TopologySpec.from_generator({"kind": "ring", "k": 4}),
        ):
            payload = {**_spec().to_json(), "topology": topology.to_json()}
            payload["topology"]["extra"] = 1
            with pytest.raises(SimulationError, match="extra"):
                ScenarioSpec.from_json(payload)
