"""Determinism and RNG-isolation guarantees of faulted runs.

A faulted run must be a pure function of its spec: replaying the same
spec (same plan, same seed) yields byte-identical rows, on both
backends, regardless of the interpreter's global :mod:`random` state.
The source audit pins the discipline that makes this true — every use
of randomness in the fault layer goes through a per-run seeded
``random.Random`` instance, never the module-level functions.
"""

import random
import re

import repro.faults.injector as injector_module
import repro.faults.nemesis as nemesis_module
from repro.faults.nemesis import random_plan
from repro.faults.plan import FaultEvent, plan_of
from repro.workloads.runner import Send, run_scenario, triage_line, triage_record
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

TOPOLOGY = TopologySpec.capture(disjoint_topology(2, group_size=3))


def faulted_spec(backend):
    # The seed-3 "full" draw plus a staggered crash burst (crash axes
    # otherwise come from the spec's own pattern).
    plan = plan_of(
        *random_plan(3, "full", process_count=6, groups=("g1", "g2")),
        FaultEvent(kind="crash_burst", start=6, amount=2, targets=(3,)),
    )
    return ScenarioSpec(
        topology=TOPOLOGY,
        sends=(Send(1, "g1", 0), Send(4, "g2", 1), Send(2, "g1", 2)),
        seed=5,
        backend=backend,
        faults=plan,
        name=f"determinism-{backend}",
    )


class TestReplayDeterminism:
    def test_engine_rows_replay_byte_identical(self):
        spec = faulted_spec("engine")
        assert run_scenario(spec).to_row() == run_scenario(spec).to_row()

    def test_kernel_rows_replay_byte_identical(self):
        spec = faulted_spec("kernel")
        assert run_scenario(spec).to_row() == run_scenario(spec).to_row()

    def test_global_random_state_cannot_leak_in(self):
        spec = faulted_spec("kernel")
        random.seed(1)
        first = run_scenario(spec).to_row()
        random.seed(999999)
        second = run_scenario(spec).to_row()
        assert first == second

    def test_delivery_records_replay_identically(self):
        spec = faulted_spec("kernel")
        a = run_scenario(spec).record.deliveries
        b = run_scenario(spec).record.deliveries
        assert a == b


class TestModuleRandomAudit:
    """No module-level randomness anywhere in the fault layer."""

    FORBIDDEN = re.compile(
        r"\brandom\.(random|randint|randrange|choice|choices|shuffle|"
        r"sample|uniform|seed|getrandbits)\("
    )

    def test_injector_uses_only_instance_rng(self):
        source = open(injector_module.__file__, encoding="utf-8").read()
        assert not self.FORBIDDEN.search(source)

    def test_nemesis_uses_only_instance_rng(self):
        source = open(nemesis_module.__file__, encoding="utf-8").read()
        assert not self.FORBIDDEN.search(source)


class TestTriage:
    def test_triage_record_names_the_replay_coordinates(self):
        spec = faulted_spec("kernel")
        record = triage_record(spec)
        assert record == {
            "spec_hash": spec.spec_hash(),
            "seed": 5,
            "backend": "kernel",
            "fault_plan_hash": spec.faults.plan_hash(),
        }

    def test_triage_line_is_greppable(self):
        spec = faulted_spec("engine")
        line = triage_line(spec)
        assert line.startswith("[triage ")
        assert spec.spec_hash()[:12] in line or spec.spec_hash() in line

    def test_faultless_triage_has_no_plan_hash(self):
        spec = faulted_spec("engine").faulted(None)
        assert triage_record(spec)["fault_plan_hash"] is None


class TestSpecFaultsAxis:
    def test_spec_json_round_trips_the_plan(self):
        spec = faulted_spec("engine")
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_faultless_spec_hash_is_pre_nemesis_stable(self):
        spec = faulted_spec("engine")
        bare = spec.faulted(None)
        # The faults key is excluded from the hash when absent, so v3
        # addresses of fault-free scenarios match their v2 addresses.
        assert bare.spec_hash() != spec.spec_hash()
        body = bare.to_json()
        assert body["faults"] is None

    def test_faulted_and_labelled_derivations(self):
        spec = faulted_spec("engine")
        assert spec.faulted(None).faults is None
        assert spec.labelled("x").name == "x"
        assert spec.labelled("x") == spec  # name is not identity
