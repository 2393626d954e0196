"""The campaign harness's failure paths, as one matrix.

Axes: {serial, pool} x {interrupt at row k, cell raises, cell over
budget, worker dies (pool only), torn cache entry, torn results.jsonl
line}.  Every cell of the matrix checks the same four things:

* the sweep's verdict — the interrupt propagates, a bad cell is a
  ``failed`` row in the summary, a torn file fails nothing;
* every cache entry is the ``ok`` row of a cell that ran (and, unless a
  worker was killed, every ``ok`` cell that ran is in the cache);
* the rerun over the cache runs or replays each cell once:
  ``executed + cached == len(cells)``;
* the rerun's artifacts are byte-equal to an uninterrupted sweep's.

Faults are planted on one victim cell by wrapping the executor's
``run_scenario``; forked pool workers inherit the wrapper, which also
leaves a marker for every run that finished.
"""

import json
import multiprocessing
import os

import pytest

from repro.campaign import executor
from repro.campaign.cache import CampaignCache
from repro.campaign.executor import run_campaign
from repro.campaign.grid import Campaign, case
from repro.workloads.runner import Send
from repro.workloads.topologies import chain_topology

ARTIFACTS = ("manifest.json", "results.jsonl")

GRID = Campaign(
    name="matrix",
    cases=(
        case("chain", chain_topology(2), sends=(Send(1, "g1", 0), Send(3, "g2", 1))),
        case("chain-late", chain_topology(2), sends=(Send(1, "g1", 3),)),
    ),
    seeds=tuple(range(6)),
    variants=("vanilla",),
    max_rounds=200,
)
CELLS = len(GRID.specs())
VICTIM = 5
VICTIM_HASH = GRID.specs()[VICTIM].spec_hash()
INTERRUPT_AT = 3
BUDGET = 1.0

MODES = (
    "serial",
    pytest.param(
        "pool",
        marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="the planted fault reaches pool workers by fork",
        ),
    ),
)


def _raise():
    raise RuntimeError("planted")


def _spin():
    while True:
        pass


def _die():
    os._exit(1)


def read_artifacts(out):
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def canonical(row):
    return json.dumps(
        {k: v for k, v in row.items() if k != "index"}, sort_keys=True
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """An uninterrupted serial sweep: its artifacts and rows by address."""
    out = tmp_path_factory.mktemp("reference")
    rows = []
    run_campaign(GRID, out_dir=str(out), on_row=rows.append)
    assert all(row["status"] == "ok" for row in rows)
    return read_artifacts(out), {
        row["spec_hash"]: canonical(row) for row in rows
    }


class Matrix:
    """One matrix cell: a sweep over a fresh cache, its checks, its rerun."""

    def __init__(self, tmp_path, monkeypatch, reference, workers):
        self.out = tmp_path / "out"
        self.cache_dir = tmp_path / "cache"
        self.ran_dir = tmp_path / "ran"
        self.ran_dir.mkdir()
        self.workers = workers
        self.reference = reference
        self.faults = {}
        real = executor.run_scenario
        ran_dir, faults = self.ran_dir, self.faults

        def planted(spec, **kwargs):
            fault = faults.get(spec.spec_hash())
            if fault is not None:
                fault()
            result = real(spec, **kwargs)
            (ran_dir / spec.spec_hash()).touch()
            return result

        monkeypatch.setattr(executor, "run_scenario", planted)

    def sweep(self, on_row=None, **kwargs):
        """Sweep the grid; returns the report and the rows it streamed."""
        rows = []

        def collect(row):
            rows.append(row)
            if on_row is not None:
                on_row(row)

        report = run_campaign(
            GRID,
            workers=self.workers,
            cache=str(self.cache_dir),
            out_dir=str(self.out),
            on_row=collect,
            **kwargs,
        )
        return report, rows

    def check_cache(self, every_ok_run_stored=True):
        """Every entry is the ok row of a cell that ran."""
        stored = {}
        for root, _dirs, files in os.walk(self.cache_dir):
            for name in files:
                if name.endswith(".json"):
                    with open(os.path.join(root, name)) as fh:
                        entry = json.load(fh)
                    stored[entry["key"]] = entry["row"]
        ran = set(os.listdir(self.ran_dir))
        assert all(row["status"] == "ok" for row in stored.values())
        assert set(stored) <= ran
        _, rows = self.reference
        assert {key: canonical(row) for key, row in stored.items()} == {
            key: rows[key] for key in stored
        }
        if every_ok_run_stored:
            assert set(stored) == ran
        return stored

    def rerun(self, **kwargs):
        """The fault gone, the sweep again over its cache and directory."""
        self.faults.clear()
        report, _ = self.sweep(**kwargs)
        assert report.executed + report.cached == CELLS
        assert report.summary["failed"] == 0
        assert read_artifacts(self.out) == self.reference[0]
        return report


@pytest.fixture
def matrix(request, tmp_path, monkeypatch, reference):
    workers = 2 if request.node.callspec.params.get("mode") == "pool" else 1
    return Matrix(tmp_path, monkeypatch, reference, workers)


@pytest.mark.parametrize("mode", MODES)
class TestFailureMatrix:
    def test_interrupt_at_row_k(self, mode, matrix):
        # Red at the parent on the pool: the cells submitted past the
        # interrupt ran and were thrown away uncached.
        seen = []

        def bomb(row):
            seen.append(row)
            if len(seen) == INTERRUPT_AT:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            matrix.sweep(on_row=bomb)
        stored = matrix.check_cache()
        assert {row["spec_hash"] for row in seen} <= set(stored)
        report = matrix.rerun()
        assert report.cached == len(stored) >= INTERRUPT_AT
        if mode == "serial":
            assert report.cached == INTERRUPT_AT

    def test_cell_raises(self, mode, matrix):
        matrix.faults[VICTIM_HASH] = _raise
        report, rows = matrix.sweep()
        assert report.summary["failed"] == 1
        assert rows[VICTIM]["error"] == "RuntimeError('planted')"
        assert VICTIM_HASH not in matrix.check_cache()
        assert matrix.rerun().executed == 1

    def test_cell_over_budget(self, mode, matrix):
        # Red at the parent serially: the budget was refused in-process.
        matrix.faults[VICTIM_HASH] = _spin
        report, rows = matrix.sweep(cell_timeout=BUDGET)
        assert report.summary["failed"] == 1
        assert rows[VICTIM]["error"] == "timeout"
        assert rows[VICTIM]["timeout"] == BUDGET
        assert VICTIM_HASH not in matrix.check_cache()
        assert matrix.rerun(cell_timeout=BUDGET).executed == 1

    def test_torn_cache_entry(self, mode, matrix):
        matrix.sweep()
        path = CampaignCache(str(matrix.cache_dir)).path_for(GRID.specs()[VICTIM])
        with open(path, "rb+") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        report = matrix.rerun()
        assert (report.executed, report.cached) == (1, CELLS - 1)
        assert VICTIM_HASH in matrix.check_cache()

    def test_torn_results_line(self, mode, matrix):
        matrix.sweep()
        results = matrix.out / "results.jsonl"
        with open(results, "rb+") as fh:
            fh.truncate(os.path.getsize(results) - 40)
        report = matrix.rerun()
        assert (report.executed, report.cached) == (0, CELLS)
        matrix.check_cache()


@pytest.mark.parametrize("mode", MODES[1:])
def test_worker_dies(mode, matrix, monkeypatch):
    """A dead worker fails the unfinished cells of its chunk, not the sweep.

    Red at the parent: ``run_campaign`` raised ``BrokenProcessPool``.
    Chunks of four cells are one pool batch each, so the victim's
    worker runs cell 4, stores it and dies on cell 5: cells 5–7 fail,
    cell 4 is found stored, and the next chunk runs on a new pool.
    """
    monkeypatch.setattr(executor, "CACHE_CHUNK", 4)
    matrix.faults[VICTIM_HASH] = _die
    report, rows = matrix.sweep()
    failed = [row["index"] for row in rows if row["status"] == "failed"]
    assert failed == [5, 6, 7]
    assert {rows[i]["error"] for i in failed} == {"worker-died"}
    assert report.summary["failed"] == 3
    assert report.executed + report.cached == CELLS
    stored = matrix.check_cache(every_ok_run_stored=False)
    assert not {rows[i]["spec_hash"] for i in failed} & set(stored)
    assert matrix.rerun().executed == 3
