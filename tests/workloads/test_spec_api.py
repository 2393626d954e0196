"""The spec-only run_scenario API and the truncation clamp."""

import inspect

import pytest

from repro.model import failure_free, make_processes, pset
from repro.model.errors import SimulationError
from repro.workloads import (
    ScenarioSpec,
    Send,
    chain_topology,
    disjoint_topology,
    run_scenario,
)
from repro.workloads.spec import TopologySpec

BACKENDS = ("engine", "kernel", "async")


def _fixture():
    topo = chain_topology(2)
    procs = make_processes(3)
    return topo, failure_free(pset(procs)), [Send(1, "g1", 0), Send(3, "g2", 4)]


class TestSpecForm:
    def test_result_self_describes_its_spec(self):
        topo, pattern, sends = _fixture()
        spec = ScenarioSpec.capture(topo, pattern, sends, seed=2)
        result = run_scenario(spec)
        assert result.spec is spec
        assert result.backend == "engine"
        row = result.to_row()
        assert row["spec_hash"] == spec.spec_hash()
        assert row["status"] == "ok"

    def test_spec_form_rejects_extra_arguments(self):
        topo, pattern, sends = _fixture()
        spec = ScenarioSpec.capture(topo, pattern, sends)
        with pytest.raises(TypeError):
            run_scenario(spec, pattern)
        with pytest.raises(TypeError):
            run_scenario(spec, seed=5)

    def test_spec_form_accepts_trace_path(self, tmp_path):
        topo, pattern, sends = _fixture()
        spec = ScenarioSpec.capture(topo, pattern, sends)
        path = str(tmp_path / "trace.jsonl")
        run_scenario(spec, trace_path=path)
        from repro.metrics import read_jsonl

        records = read_jsonl(path)
        assert records[0]["type"] == "meta"
        assert records[0]["spec_hash"] == spec.spec_hash()


class TestSpecOnlySignature:
    def test_signature_is_spec_plus_two_harness_keywords(self):
        parameters = inspect.signature(run_scenario).parameters
        assert list(parameters) == ["spec", "trace_path", "stall_window"]
        assert parameters["trace_path"].kind is inspect.Parameter.KEYWORD_ONLY
        assert parameters["stall_window"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_live_topology_is_rejected_with_migration_hint(self):
        topo, _, _ = _fixture()
        with pytest.raises(TypeError, match="ScenarioSpec.capture"):
            run_scenario(topo)


@pytest.mark.parametrize("backend", BACKENDS)
class TestClosedModelCheck:
    """A malformed script fails the same way on every backend, up front."""

    # p1-p3 form g1, p4-p6 form g2: disjoint, so the kernel can run it.
    TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))

    def _spec(self, backend, sends, crashes=()):
        return ScenarioSpec(
            topology=self.TOPO,
            sends=tuple(sends),
            crashes=tuple(crashes),
            backend=backend,
            max_rounds=200,
        )

    def test_live_non_member_sender_is_rejected(self, backend):
        with pytest.raises(SimulationError, match="closed model: p1"):
            run_scenario(self._spec(backend, [Send(1, "g2", 0)]))

    def test_dead_non_member_sender_is_rejected_not_skipped(self, backend):
        # Seed bug: engine/async tested liveness before membership, so a
        # crashed outsider was quietly counted in skipped_sends while the
        # kernel raised.
        spec = self._spec(backend, [Send(1, "g2", 3)], crashes=[(1, 0)])
        with pytest.raises(SimulationError, match="closed model: p1"):
            run_scenario(spec)

    def test_late_malformed_send_fails_before_anything_runs(self, backend):
        spec = self._spec(backend, [Send(4, "g2", 0), Send(4, "g1", 10_000)])
        with pytest.raises(SimulationError, match="closed model: p4"):
            run_scenario(spec)

    def test_unknown_sender_index_is_rejected(self, backend):
        with pytest.raises(ValueError, match="no process with index 9"):
            run_scenario(self._spec(backend, [Send(9, "g1", 0)]))

    def test_dead_member_sender_is_still_just_skipped(self, backend):
        spec = self._spec(
            backend, [Send(1, "g1", 3), Send(4, "g2", 0)], crashes=[(1, 0)]
        )
        result = run_scenario(spec)
        assert [send.sender for send in result.skipped_sends] == [1]
        assert len(result.messages) == 1
        assert result.delivered_everywhere()


class TestTruncationClamp:
    def test_issue_loop_consuming_budget_clamps_drain_to_zero(self):
        # The last send lands on the final budgeted round: the issue loop
        # eats the whole budget and the drain must receive 0, not -1.
        topo, pattern, _ = _fixture()
        result = run_scenario(
            ScenarioSpec.capture(
                topo, pattern, [Send(1, "g1", 4)], seed=1, max_rounds=4
            )
        )
        assert result.unsent_sends  # never reached round 4's issuance
        assert result.truncated
        assert result.rounds == 4

    def test_exhausted_drain_budget_surfaces_as_truncated(self):
        topo, pattern, _ = _fixture()
        result = run_scenario(
            ScenarioSpec.capture(
                topo, pattern, [Send(1, "g1", 4)], seed=1, max_rounds=5
            )
        )
        assert result.unsent_sends == []  # issued on the last round
        assert result.truncated  # 0 drain rounds left: no quiescence
        assert not result.delivered_everywhere()

    def test_complete_run_is_not_truncated(self):
        topo, pattern, sends = _fixture()
        result = run_scenario(ScenarioSpec.capture(topo, pattern, sends, seed=1))
        assert not result.truncated
        assert result.delivered_everywhere()

    def test_truncated_run_shows_in_row(self):
        topo, pattern, _ = _fixture()
        row = run_scenario(
            ScenarioSpec.capture(
                topo, pattern, [Send(1, "g1", 4)], seed=1, max_rounds=5
            )
        ).to_row()
        assert row["truncated"] is True
        assert row["delivered_everywhere"] is False
