"""The kernel execution backend of ``run_scenario`` (spec schema v2).

A ``backend="kernel"`` spec runs one replicated log per destination
group on the Appendix-A kernel instead of the Algorithm-1 engine; the
synthesized :class:`RunRecord` must satisfy the same §2.2 properties.
These tests cover the backend dispatch, the disjointness requirement,
agreement with the scan oracle, the schema-v2 JSON round trip with v1
backward compatibility, and the ``backends`` Campaign axis.
"""

from __future__ import annotations

import pytest

from repro.campaign.grid import Campaign, case
from repro.groups import paper_figure1_topology
from repro.model.errors import SimulationError, TopologyError
from repro.props.batch import batch_verdicts, verdicts_ok
from repro.workloads import ScenarioSpec, Send, run_scenario
from repro.workloads.spec import SPEC_SCHEMA_VERSION, TopologySpec
from repro.workloads.topologies import disjoint_topology
from tests.runtime._oracle import scan_everywhere

TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))
SENDS = (Send(1, "g1", 0), Send(4, "g2", 0), Send(2, "g1", 1))


def kernel_spec(**overrides):
    base = dict(
        topology=TOPO, sends=SENDS, seed=3, backend="kernel", max_rounds=300
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestKernelBackend:
    def test_delivers_and_satisfies_properties(self):
        result = run_scenario(kernel_spec())
        assert result.backend == "kernel"
        assert result.kernel is not None and result.system is None
        assert result.quiescent and not result.truncated
        assert result.delivered_everywhere()
        assert verdicts_ok(batch_verdicts(result.record))
        # One delivery per (message, destination member).
        assert len(result.record.deliveries) == 3 * 3

    def test_survives_a_minority_crash(self):
        result = run_scenario(kernel_spec(crashes=((3, 5),)))
        assert result.quiescent
        assert result.delivered_everywhere()
        assert verdicts_ok(batch_verdicts(result.record))

    def test_crashed_sender_is_skipped_not_fatal(self):
        spec = kernel_spec(
            crashes=((1, 0),), sends=(Send(1, "g1", 2), Send(4, "g2", 0))
        )
        result = run_scenario(spec)
        assert [s.sender for s in result.skipped_sends] == [1]
        assert len(result.messages) == 1
        assert result.delivered_everywhere()

    def test_event_and_scan_modes_agree_on_deliveries(self, monkeypatch):
        def deliveries():
            result = run_scenario(kernel_spec())
            return sorted(
                (e.time, e.process.name, str(e.message.mid))
                for e in result.record.deliveries
            )

        event = deliveries()
        scan_everywhere(monkeypatch)
        assert deliveries() == event

    def test_intersecting_groups_rejected(self):
        spec = ScenarioSpec(
            topology=TopologySpec.capture(paper_figure1_topology()),
            sends=(Send(1, "g1", 0),),
            backend="kernel",
        )
        with pytest.raises(TopologyError):
            run_scenario(spec)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            ScenarioSpec(topology=TOPO, backend="quantum")

    def test_to_row_carries_backend_and_quiescent(self):
        row = run_scenario(kernel_spec()).to_row()
        assert row["backend"] == "kernel"
        assert row["quiescent"] is True
        assert row["delivered_everywhere"] is True
        assert row["trace"]["eligible"] >= row["trace"]["scanned"] > 0

    def test_engine_rows_carry_the_new_columns_too(self):
        engine = ScenarioSpec(topology=TOPO, sends=SENDS, seed=3)
        row = run_scenario(engine).to_row()
        assert row["backend"] == "engine"
        assert row["quiescent"] is True


class TestSchemaV2:
    def test_schema_version_bumped(self):
        # v2 added the backend axes; v3 the faults axis.
        assert SPEC_SCHEMA_VERSION >= 2
        assert kernel_spec().to_json()["schema"] == SPEC_SCHEMA_VERSION

    def test_round_trip_preserves_backend_axes(self):
        spec = kernel_spec()
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.backend == "kernel"
        assert clone.spec_hash() == spec.spec_hash()

    def test_v1_payload_loads_with_engine_defaults(self):
        payload = ScenarioSpec(topology=TOPO, sends=SENDS).to_json()
        payload.pop("backend")
        payload.pop("event_driven")
        payload["schema"] = 1
        clone = ScenarioSpec.from_json(payload)
        assert clone.backend == "engine"

    def test_hash_ignores_backend_axes_at_their_defaults(self):
        """An engine spec's address must not move with the schema bump."""
        spec = ScenarioSpec(topology=TOPO, sends=SENDS)
        body_with = spec.to_json()
        assert "backend" in body_with  # serialized explicitly...
        assert spec.spec_hash() == ScenarioSpec.from_json(body_with).spec_hash()
        # ...but a non-default backend does change the identity.
        assert spec.spec_hash() != kernel_spec(seed=0, max_rounds=600).spec_hash()


class TestCampaignAxes:
    def _campaign(self, **axes):
        return Campaign(
            name="t",
            cases=(case("d", TOPO, sends=SENDS),),
            seeds=(0, 1),
            **axes,
        )

    def test_backend_axis_expands_the_grid(self):
        campaign = self._campaign(backends=("engine", "kernel"))
        specs = campaign.specs()
        assert len(specs) == 2 * 2  # seeds x backends
        assert {s.backend for s in specs} == {"engine", "kernel"}
        assert [s.name for s in specs] == [
            f"d:s{seed}:vanilla:{backend}"
            for seed in (0, 1)
            for backend in ("engine", "kernel")
        ]

    def test_default_axes_keep_labels_short(self):
        specs = self._campaign().specs()
        assert {s.name for s in specs} == {"d:s0:vanilla", "d:s1:vanilla"}

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            self._campaign(backends=())

    def test_manifest_records_the_new_axes(self):
        blob = self._campaign(backends=("engine", "kernel")).to_json()
        assert blob["backends"] == ["engine", "kernel"]
        # Retired axes stay on the wire as constants: hashes must not move.
        assert blob["schedulings"] == ["event"]
        assert blob["event_drivens"] == [None]
