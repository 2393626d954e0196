"""The ``quirks`` axis (spec schema v6) and the supersede-wait quirk.

A quirk re-enables a retired code path so a *fixed* bug stays
reachable as a search target: the grid's rediscovery gate
(``tests/campaign/test_triage.py``) needs the superseded-proposer
stall to exist somewhere.  These tests pin the axis's contract — schema
round-trip, content addressing, validation
— and the quirk's behaviour at the workloads layer: a quirked kernel
run under late-Omega rotation stalls forever, the fixed path and the
quirk-free spec do not.
"""

import pytest

from repro.faults.plan import FaultEvent, FaultPlan
from repro.model.errors import SimulationError
from repro.substrates.consensus import ConsensusAutomaton
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import KNOWN_QUIRKS, ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))
SENDS = (Send(1, "g1", 0), Send(4, "g2", 0))


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


class TestQuirksAxis:
    def test_round_trips_through_json(self):
        spec = kernel_spec(quirks=("supersede-wait",))
        twin = ScenarioSpec.from_json(spec.to_json())
        assert twin == spec
        assert twin.quirks == ("supersede-wait",)

    def test_quirks_are_part_of_the_content_address(self):
        assert (
            kernel_spec(quirks=("supersede-wait",)).spec_hash()
            != kernel_spec().spec_hash()
        )

    def test_quirks_are_sorted_and_deduplicated(self):
        spec = kernel_spec(
            quirks=("supersede-wait", "supersede-wait")
        )
        assert spec.quirks == ("supersede-wait",)

    def test_unknown_quirks_fail_loudly(self):
        with pytest.raises(SimulationError):
            kernel_spec(quirks=("tabs-vs-spaces",))

    def test_known_quirks_is_the_registry(self):
        assert "supersede-wait" in KNOWN_QUIRKS


class TestSupersedeWait:
    def test_quirked_run_stalls_under_omega_rotation(self):
        result = run_scenario(
            kernel_spec(
                quirks=("supersede-wait",), faults=OMEGA_ROTATION
            )
        )
        assert result.truncated  # the superseded proposer waits forever

    def test_fixed_path_quiesces_under_the_same_rotation(self):
        result = run_scenario(kernel_spec(faults=OMEGA_ROTATION))
        assert not result.truncated
        result.assert_ok()

    def test_quirk_alone_is_benign(self):
        result = run_scenario(kernel_spec(quirks=("supersede-wait",)))
        assert not result.truncated
        result.assert_ok()

    def test_consensus_rejects_unknown_supersede_modes(self):
        from repro.model.processes import make_processes, pset

        scope = pset(make_processes(3))
        pid = next(iter(scope)).index
        with pytest.raises(ValueError):
            ConsensusAutomaton(pid, scope, supersede="retry-forever")
