"""The retired ``quirks`` axis and the supersede-wait patch.

A spec used to carry ``quirks=("supersede-wait",)``, and the kernel
backend then built its consensus with the proposer from before the
superseded-ballot fix.  The planted defect is a test patch now
(:func:`tests.substrates._oracle.supersede_wait_everywhere`), like the
kill ledger's other two: no spec field, registry or constructor
parameter selects it.  The wire form keeps ``"quirks": []`` as a
constant so no content address moves; a payload naming a quirk fails to
load instead of running the shipped protocol under its name.

The behavioural half pins the patch at the workloads layer: a patched
kernel run under late-Omega rotation stalls forever, the shipped
proposer under the same rotation and the patch alone do not.
"""

import inspect
import json
import pathlib

import pytest

from repro._content import content_hash
from repro.faults.plan import FaultEvent, FaultPlan
from repro.model.errors import SimulationError
from repro.props.checkers import assert_run_ok
from repro.substrates.consensus import ConsensusAutomaton
from repro.substrates.replicated_log import (
    ReplicatedLogAutomaton,
    ReplicatedLogCluster,
)
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology
from tests.substrates._oracle import supersede_wait_everywhere

TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))
SENDS = (Send(1, "g1", 0), Send(4, "g2", 0))
REPROS = pathlib.Path(__file__).parents[1] / "explore" / "repros"


def kernel_spec(**overrides):
    base = dict(
        topology=TOPO, sends=SENDS, backend="kernel", max_rounds=240
    )
    base.update(overrides)
    return ScenarioSpec(**base)


#: The PR 4 trigger: a late Omega rotating suspicion through g1.
OMEGA_ROTATION = FaultPlan(
    (FaultEvent(kind="omega_late", group="g1", until=24),)
)


@pytest.fixture
def supersede_wait(monkeypatch):
    supersede_wait_everywhere(monkeypatch)


class TestQuirksAxis:
    def test_round_trips_through_json(self):
        spec = kernel_spec(faults=OMEGA_ROTATION)
        assert spec.to_json()["quirks"] == []
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_quirks_are_part_of_the_content_address(self):
        # The constant stays until a schema bump: without it every
        # address would move.
        body = kernel_spec().to_json()
        del body["name"]
        assert kernel_spec().spec_hash() == content_hash(body)
        del body["quirks"]
        assert kernel_spec().spec_hash() != content_hash(body)

    def test_unknown_quirks_fail_loudly(self):
        for quirks in (["supersede-wait"], ["tabs-vs-spaces"], None):
            payload = kernel_spec().to_json()
            payload["quirks"] = quirks
            with pytest.raises(SimulationError, match="quirks"):
                ScenarioSpec.from_json(payload)

    def test_no_spec_or_substrate_takes_a_quirk(self):
        assert "quirks" not in inspect.signature(ScenarioSpec).parameters
        for target in (
            ConsensusAutomaton,
            ReplicatedLogAutomaton,
            ReplicatedLogCluster,
        ):
            assert "supersede" not in inspect.signature(target).parameters

    @pytest.mark.parametrize(
        "path", sorted(REPROS.glob("*.json")), ids=lambda path: path.name
    )
    def test_the_committed_repros_keep_their_address(self, path):
        payload = json.loads(path.read_text())
        spec = ScenarioSpec.from_json(payload["spec"])
        assert spec.spec_hash() == payload["triage"]["spec_hash"]
        assert spec.to_json() == payload["spec"]


class TestSupersedeWait:
    def test_quirked_run_stalls_under_omega_rotation(self, supersede_wait):
        result = run_scenario(kernel_spec(faults=OMEGA_ROTATION))
        assert result.truncated  # the superseded proposer waits forever

    def test_fixed_path_quiesces_under_the_same_rotation(self):
        result = run_scenario(kernel_spec(faults=OMEGA_ROTATION))
        assert not result.truncated
        assert_run_ok(result.record)

    def test_quirk_alone_is_benign(self, supersede_wait):
        result = run_scenario(kernel_spec())
        assert not result.truncated
        assert_run_ok(result.record)
