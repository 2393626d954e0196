"""The ``backend="async"`` execution backend (spec schema v5).

Covers the runner dispatch, the spec JSON round trip and spec-hash
pinning, the determinism contract that makes async counterexamples
replayable under ddmin/repro files, and the Campaign ``delay_models``
axis.
"""

from __future__ import annotations

import pytest

from repro.campaign.aggregate import sweep_hash
from repro.campaign.grid import Campaign, case
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.shrink import (
    PlanShrinker,
    load_repro,
    replay_repro,
    repro_payload,
    write_repro,
)
from repro.groups import paper_figure1_topology
from repro.model.errors import SimulationError
from repro.props.batch import batch_verdicts, verdicts_ok
from repro.workloads import ScenarioSpec, Send, run_scenario
from repro.workloads.spec import SPEC_SCHEMA_VERSION, TopologySpec

TOPO = TopologySpec.capture(paper_figure1_topology())
SENDS = (Send(1, "g1", 0), Send(2, "g2", 1), Send(1, "g3", 2), Send(4, "g4", 3))


def async_spec(**overrides):
    base = dict(
        topology=TOPO, sends=SENDS, seed=11, backend="async", max_rounds=400
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def trace(result):
    """Full delivery trace including times — the determinism fingerprint."""
    return [
        (e.time, e.process.name, str(e.message.mid))
        for e in result.record.deliveries
    ]


class TestAsyncBackend:
    def test_delivers_and_satisfies_properties(self):
        result = run_scenario(async_spec())
        assert result.backend == "async"
        assert result.system is not None and result.kernel is None
        assert result.quiescent and not result.truncated
        assert result.delivered_everywhere()
        assert verdicts_ok(batch_verdicts(result.record))

    def test_crashed_sender_is_skipped_not_fatal(self):
        result = run_scenario(
            async_spec(crashes=((5, 0),), sends=(Send(5, "g4", 2), *SENDS))
        )
        assert [s.sender for s in result.skipped_sends] == [5]
        assert result.quiescent
        assert verdicts_ok(batch_verdicts(result.record))

    def test_survives_mid_run_crash(self):
        result = run_scenario(async_spec(crashes=((4, 4),)))
        assert result.quiescent
        assert verdicts_ok(batch_verdicts(result.record))

    @pytest.mark.parametrize(
        "dm",
        [
            ("fixed", 0.5),
            ("uniform", 0.1, 0.9),
            ("exponential", 1.0, 8.0),
            ("slow_pairs", 4.0, ((1, 2), (2, 1)), 0.1, 0.9),
        ],
        ids=lambda dm: dm[0],
    )
    def test_every_delay_model_terminates_clean(self, dm):
        result = run_scenario(async_spec(delay_model=dm))
        assert result.quiescent and not result.truncated
        assert result.delivered_everywhere()
        assert verdicts_ok(batch_verdicts(result.record))

    def test_fault_plan_rides_along(self):
        plan = FaultPlan(
            (
                FaultEvent(kind="link_delay", start=1, until=8, amount=2),
                FaultEvent(kind="link_drop", start=2, until=9, amount=2),
            )
        )
        result = run_scenario(async_spec(faults=plan))
        assert result.quiescent
        assert verdicts_ok(batch_verdicts(result.record))


class TestVirtualClockDeterminism:
    """The round-unit loop clock and seeded latencies make async runs
    replayable."""

    def test_same_spec_same_trace(self):
        spec = async_spec(delay_model=("exponential", 1.0, 8.0))
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert trace(first) == trace(second)
        assert first.rounds == second.rounds
        assert first.quiescent == second.quiescent

    def test_seed_moves_the_schedule(self):
        # Different seeds redraw the latency stream; delivery *sets*
        # stay pinned even when the interleaving moves.
        a = run_scenario(async_spec(seed=1))
        b = run_scenario(async_spec(seed=2))
        assert sorted(t[1:] for t in trace(a)) == sorted(
            t[1:] for t in trace(b)
        )

    def test_repro_file_replays_exactly(self, tmp_path):
        plan = FaultPlan(
            (FaultEvent(kind="link_drop", start=2, until=9, amount=2),)
        )
        spec = async_spec(faults=plan)
        payload = repro_payload(spec, plan, plan)
        path = tmp_path / "repro.json"
        write_repro(str(path), payload)
        loaded = load_repro(str(path))
        assert loaded["triage"]["backend"] == "async"
        fresh = replay_repro(loaded)
        assert fresh["verdicts"] == payload["verdicts"]
        assert fresh["truncated"] == payload["truncated"]

    def test_ddmin_runs_over_async_specs(self):
        # The shrinker only needs a deterministic predicate; async runs
        # qualify.  Predicate: "the plan still drops a
        # datagram", which ddmin minimizes to the single drop event.
        plan = FaultPlan(
            (
                FaultEvent(kind="link_delay", start=1, until=6, amount=1),
                FaultEvent(kind="link_drop", start=2, until=9, amount=2),
                FaultEvent(kind="sigma_noise", start=2, until=4),
            )
        )

        def still_drops(spec: ScenarioSpec) -> bool:
            result = run_scenario(spec)
            assert result.quiescent
            return bool(
                result.injector is not None
                and result.injector.stats["dropped"] > 0
            )

        shrinker = PlanShrinker(async_spec(faults=plan), violates=still_drops)
        minimal = shrinker.shrink(plan)
        assert len(minimal) == 1
        assert minimal.events[0].kind == "link_drop"


class TestSpecSchemaV5:
    def test_schema_version(self):
        # v5 added the async axes below; v6 the quirks axis; v7 put every
        # field on the wire and in the hash (tests/campaign/test_spec.py);
        # v8 dropped the async ``clock``, whose loop now counts rounds.
        assert SPEC_SCHEMA_VERSION == 8

    def test_json_round_trip(self):
        spec = async_spec(
            delay_model=("slow_pairs", 4.0, ((1, 2), (2, 1)), 0.1, 0.9),
        )
        loaded = ScenarioSpec.from_json(spec.to_json())
        assert loaded == spec
        assert loaded.spec_hash() == spec.spec_hash()

    def test_spec_hash_pinned_for_pre_v5_specs(self):
        # Spelling the defaults out names the same scenario.
        spec = ScenarioSpec(topology=TOPO, sends=SENDS, seed=3)
        explicit = ScenarioSpec(
            topology=TOPO, sends=SENDS, seed=3, delay_model=None
        )
        assert spec.spec_hash() == explicit.spec_hash()

    def test_delay_model_moves_the_hash(self):
        base = async_spec()
        assert (
            async_spec(delay_model=("fixed", 0.5)).spec_hash()
            != base.spec_hash()
        )

    def test_delay_model_is_canonicalized(self):
        # JSON round trips turn tuples into lists; both spell one spec.
        a = async_spec(delay_model=["uniform", 0.1, 0.9])
        b = async_spec(delay_model=("uniform", 0.1, 0.9))
        assert a.delay_model == b.delay_model == ("uniform", 0.1, 0.9)
        assert a.spec_hash() == b.spec_hash()

    def test_bad_delay_model_fails_at_capture(self):
        with pytest.raises(SimulationError):
            async_spec(delay_model=("warp", 9))


class TestCampaignDelayAxis:
    def _campaign(self, **overrides):
        base = dict(
            name="axis",
            cases=(
                case(
                    "fig1",
                    paper_figure1_topology(),
                    sends=(Send(1, "g1", 0),),
                ),
            ),
            backends=("engine", "async"),
            delay_models=(None, ("exponential", 1.0, 8.0)),
        )
        base.update(overrides)
        return Campaign(**base)

    def test_only_async_cells_expand_over_delay_models(self):
        specs = self._campaign().specs()
        engine = [s for s in specs if s.backend == "engine"]
        asynch = [s for s in specs if s.backend == "async"]
        assert len(engine) == 1 and engine[0].delay_model is None
        assert [s.delay_model for s in asynch] == [
            None,
            ("exponential", 1.0, 8.0),
        ]

    def test_labels_name_the_model(self):
        labels = [s.name for s in self._campaign().specs()]
        assert labels == [
            "fig1:s0:vanilla:engine",
            "fig1:s0:vanilla:async:d-default",
            "fig1:s0:vanilla:async:d-exponential",
        ]

    def test_default_axis_keeps_manifest_and_hash(self):
        plain = self._campaign(delay_models=(None,))
        assert all(s.delay_model is None for s in plain.specs())
        swept = self._campaign()
        assert sweep_hash(plain.name, plain.specs()) != sweep_hash(
            swept.name, swept.specs()
        )

    def test_axis_canonicalizes_list_spelling(self):
        a = self._campaign(delay_models=(["exponential", 1.0, 8.0],))
        b = self._campaign(delay_models=(("exponential", 1.0, 8.0),))
        assert sweep_hash(a.name, a.specs()) == sweep_hash(b.name, b.specs())
