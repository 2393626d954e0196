"""Tests for the per-round trace recorder and its JSONL exporter."""

from repro.core.engine import MulticastSystem
from repro.groups.topology import paper_figure1_topology
from repro.metrics.trace import (
    TRACE_SCHEMA_VERSION,
    WAIT_IDLE,
    WAIT_QUORUM,
    TraceRecorder,
    read_jsonl,
)
from repro.model.failures import failure_free
from repro.model.processes import make_processes, pset
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec
from repro.workloads.topologies import chain_topology


class TestRecorder:
    def test_round_lifecycle_counters(self):
        tr = TraceRecorder()
        tr.begin_round(time=1, eligible=3, full_scan=True)
        tr.note_scanned(fired=2)
        tr.note_scanned(fired=0)
        tr.note_skipped()
        tr.quorum_queries += 2  # what two quorum_ok calls do, one stalled
        tr.quorum_stalls += 1
        tr.note_wait(WAIT_QUORUM)
        done = tr.end_round()
        assert done.round == 1
        assert done.eligible == 3
        assert done.scanned == 2
        assert done.skipped == 1
        assert done.actions == 2
        assert done.full_scan
        assert done.quorum_queries == 2
        assert done.quorum_stalls == 1
        assert done.wait_reasons == {WAIT_QUORUM: 1}

    def test_events_outside_a_round_are_not_lost_by_end_round(self):
        tr = TraceRecorder()
        assert tr.end_round() is None
        tr.note_scanned(1)  # no open round: silently ignored
        assert tr.rounds == []

    def test_events_before_a_round_are_dropped_not_carried_into_it(self):
        """A guard probe made while no round is open (here: a direct
        ``quorum_ok`` on a stalled scope) counts nowhere — the next
        ``begin_round`` zeroes the window."""
        topology = paper_figure1_topology()
        p1 = min(topology.processes)
        system = MulticastSystem(topology, failure_free(topology.processes))
        g1 = topology.group("g1").members
        system._scheduler.responders = frozenset()
        assert not system.quorum_ok(p1, g1)
        tr = system.tracer
        assert (tr.quorum_queries, tr.quorum_stalls) == (1, 1)
        tr.begin_round(time=1, eligible=5, full_scan=True)
        done = tr.end_round()
        assert (done.quorum_queries, done.quorum_stalls) == (0, 0)

    def test_summary_totals_and_ratio(self):
        tr = TraceRecorder()
        for _ in range(2):
            tr.begin_round(time=1, eligible=4, full_scan=False)
            tr.note_scanned(1)
            tr.note_skipped()
            tr.note_skipped()
            tr.note_skipped()
            tr.note_wait(WAIT_IDLE)
            tr.end_round()
        summary = tr.summary()
        assert summary["rounds"] == 2
        assert summary["eligible"] == 8
        assert summary["scanned"] == 2
        assert summary["skipped"] == 6
        assert summary["scan_ratio"] == 4.0
        assert summary["full_scan_rounds"] == 0
        assert summary["wait_reasons"] == {WAIT_IDLE: 2}

    def test_empty_summary_has_zero_ratio(self):
        assert TraceRecorder().summary()["scan_ratio"] == 0.0


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tr = TraceRecorder()
        tr.begin_round(time=1, eligible=2, full_scan=True)
        tr.note_scanned(1)
        tr.end_round()
        path = str(tmp_path / "trace.jsonl")
        tr.write_jsonl(path, meta={"seed": 7})
        records = read_jsonl(path)
        assert [r["type"] for r in records] == ["meta", "round", "summary"]
        meta, round_line, summary = records
        assert meta["schema"] == TRACE_SCHEMA_VERSION
        assert meta["seed"] == 7
        assert round_line["eligible"] == 2
        assert round_line["scanned"] == 1
        assert summary["actions"] == 1

    def test_runner_trace_path_writes_a_consistent_file(self, tmp_path):
        topo = chain_topology(2)
        procs = make_processes(3)
        path = str(tmp_path / "run.jsonl")
        spec = ScenarioSpec.capture(
            topo,
            failure_free(pset(procs)),
            [Send(1, "g1", 0), Send(3, "g2", 2)],
            seed=4,
        )
        result = run_scenario(spec, trace_path=path)
        assert result.delivered_everywhere()
        records = read_jsonl(path)
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "summary"
        round_lines = [r for r in records if r["type"] == "round"]
        assert round_lines  # at least one executed round traced
        summary = records[-1]
        assert summary["rounds"] == len(round_lines)
        assert summary["scanned"] == sum(r["scanned"] for r in round_lines)
        for r in round_lines:
            assert r["eligible"] == r["scanned"] + r["skipped"]
