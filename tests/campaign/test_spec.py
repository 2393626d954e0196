"""ScenarioSpec: value semantics, hashing, JSON round-trip."""

import json

import pytest

from repro.model import (
    SimulationError,
    crash_pattern,
    failure_free,
    make_processes,
    pset,
)
from repro.workloads import (
    ScenarioSpec,
    Send,
    TopologySpec,
    chain_topology,
    ring_topology,
)


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
        named = _spec().labelled("row-7")
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


class TestLoaderFailsLoudly:
    """``from_json`` must not silently load what it cannot represent:
    dropping an axis it does not know, or one PR 16 retired, would hand
    back a spec with a different content address than the stored one."""

    def test_newer_schema_is_rejected(self):
        payload = _spec().to_json()
        payload["schema"] = payload["schema"] + 1
        with pytest.raises(SimulationError, match="schema"):
            ScenarioSpec.from_json(payload)

    def test_retired_scan_scheduling_is_rejected(self):
        payload = _spec().to_json()
        payload["scheduling"] = "scan"
        with pytest.raises(SimulationError, match="'scheduling'.*PR 16"):
            ScenarioSpec.from_json(payload)

    @pytest.mark.parametrize("value", [True, False])
    def test_retired_explicit_event_driven_is_rejected(self, value):
        payload = _spec().to_json()
        payload["event_driven"] = value
        with pytest.raises(SimulationError, match="'event_driven'.*PR 16"):
            ScenarioSpec.from_json(payload)

    def test_retired_axes_load_at_their_constants_or_absent(self):
        payload = _spec().to_json()
        assert (payload["scheduling"], payload["event_driven"]) == ("event", None)
        assert ScenarioSpec.from_json(payload) == _spec()
        del payload["scheduling"], payload["event_driven"]
        assert ScenarioSpec.from_json(payload) == _spec()
