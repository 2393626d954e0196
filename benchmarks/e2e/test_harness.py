"""Tests of the benchmark harness itself.

Not in the tier-1 ``testpaths``; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import shim  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- stats ------------------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert stats.percentile(values, 0) == 1
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_grouped_percentile_moves_smoothly_across_ties():
    # Half the sample on 1: the plain median flips between 1 and 2 with one
    # observation; the grouped one moves by a fraction of a round.
    low = [1] * 51 + [2] * 10 + [9] * 39
    high = [1] * 49 + [2] * 12 + [9] * 39
    assert stats.percentile(low, 50) == 1 and stats.percentile(high, 50) == 2
    a, b = stats.grouped_percentile(low, 50), stats.grouped_percentile(high, 50)
    assert 1.4 < a < 1.5 < b < 1.7
    assert stats.grouped_percentile([5, 5, 5, 5], 50) == 5.0
    assert stats.grouped_percentile([3], 0) == 2.5
    assert stats.grouped_percentile([3], 100) == 3.5
    with pytest.raises(ValueError):
        stats.grouped_percentile([], 50)
    with pytest.raises(ValueError):
        stats.grouped_percentile([1], 101)


@pytest.mark.parametrize(
    "count, expected",
    [(7, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert round(count * (100 - expected) / 100, 6) >= stats.MIN_BEYOND


def test_quartiles_match_the_drivers_definition():
    import statistics

    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q = stats.quartiles(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (q["q1"], q["median"], q["q3"], q["n"]) == (q1, 4.0, q3, 7)
    assert stats.quartiles([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


# -- span arithmetic ------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 9.0, 0, 0],
        ["root", 20.0, 21.0, -1, 1],
    ]
    own = shim.self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    # Self times partition exactly the time under the root spans.
    assert sum(own) == pytest.approx(shim.root_seconds(spans))
    assert shim.root_seconds(spans) == pytest.approx(11.0)


def test_seam_totals_attribute_self_time_and_calls():
    seams = (
        shim.Seam("m", "A", "outer", "a.self_s", "a.calls"),
        shim.Seam("m", "B", "inner", "b.self_s"),
    )
    spans = [["A.outer", 0.0, 5.0, -1, 0], ["B.inner", 1.0, 3.0, 0, 0],
             ["A.outer", 6.0, 7.0, -1, 0]]
    assert shim.seam_totals(spans, seams) == {"a.self_s": 4.0, "a.calls": 2, "b.self_s": 2.0}
    assert shim.layer_of("objects.space.read_s") == "objects.space"


def _raw_attributes():
    found = []
    for seam in shim.SEAMS:
        module = importlib.import_module(seam.module)
        owner = getattr(module, seam.owner) if seam.owner else module
        found.append((owner, seam.attr, vars(owner)[seam.attr]))
    return found


def test_install_then_uninstall_restores_the_original_attributes():
    import repro.campaign.executor as executor
    import repro.props.batch as batch
    import repro.workloads.runner as runner

    before = _raw_attributes()
    imported_run_scenario = executor.run_scenario
    checks = batch.BATCH_CHECKS
    tracer = shim.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in before)
        # A function is replaced wherever it was imported, not only at home.
        assert executor.run_scenario is runner.run_scenario is not imported_run_scenario
        assert batch.BATCH_CHECKS is not checks
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in before)
    assert executor.run_scenario is imported_run_scenario
    assert batch.BATCH_CHECKS is checks


def test_shim_records_nested_spans_and_counts():
    from repro.campaign import executor

    spec = workloads.warmup_spec(workloads.generate("engine-longlog", 0, 0.1))
    tracer = shim.Tracer()
    tracer.install()
    try:
        row = executor.execute_spec((3, spec))
    finally:
        tracer.uninstall()
    assert row["status"] == "ok"
    names = {span[0] for span in tracer.spans}
    assert {"execute_spec", "run_scenario", "ScenarioResult.to_row",
            "Algorithm1Process.try_actions", "LogHandle.append"} <= names
    root = tracer.spans[0]
    assert root[0] == "execute_spec" and root[3] == -1
    assert {span[4] for span in tracer.spans} == {3}
    assert all(0 <= span[3] < i for i, span in enumerate(tracer.spans) if i)
    assert tracer.counts["metrics.trace.round_calls"] == row["trace"]["rounds"]
    # An engine run is not under AsyncDriver.run: its fires are not counted.
    assert "runtime.async_driver.fires" not in tracer.counts


# -- workloads --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_pure_functions_of_the_seed(name):
    first = workloads.generate(name, 3, 0.1)
    again = workloads.generate(name, 3, 0.1)
    other = workloads.generate(name, 4, 0.1)
    assert first == again
    assert workloads.cells_digest(first) == workloads.cells_digest(again)
    assert workloads.cells_digest(first) != workloads.cells_digest(other)
    assert len(first) == len(other) >= 1


def test_default_scale_cell_counts():
    counts = {
        name: len(workloads.generate(name, 0)) for name in workloads.WORKLOADS
    }
    assert counts == {
        "engine-longlog": 1, "kernel-wide": 1, "async-shortlog": 20,
        "campaign-faulted": 102,
    }
    assert len(workloads.generate("engine-longlog", 0)[0].sends) == 480
    cells = workloads.generate("campaign-faulted", 0, 1.0)
    assert len(cells) == 204
    assert not any("figure1" in c.name and "/recovery/" in c.name for c in cells)


def test_contract_names_the_workloads_the_code_defines():
    declared = {w["name"]: w["why"] for w in contract()["workloads"]}
    assert declared == {name: w.why for name, w in workloads.WORKLOADS.items()}


def test_contract_keeps_to_the_drivers_limits():
    import re

    spec = contract()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"] and spec["command"][-1].startswith(spec["paths"][0])
    assert 1 <= spec["run_seconds"] <= 60
    name, unit = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"), re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)) and all(name.fullmatch(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert unit.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128 and len(spec["end_to_end"]) <= 16


# -- compare ----------------------------------------------------------------------


def _entry(median, q1=None, q3=None):
    return {"median": median, "q1": median if q1 is None else q1,
            "q3": median if q3 is None else q3}


@pytest.mark.parametrize(
    "a, b, better, bound, expected",
    [
        (_entry(100), _entry(100), "higher", 0.1, compare.SAME),
        (_entry(100), _entry(95), "higher", 0.1, compare.SAME),
        (_entry(100), _entry(85), "higher", 0.1, compare.WORSE),
        (_entry(100), _entry(115), "higher", 0.1, compare.BETTER),
        (_entry(100), _entry(115), "lower", 0.1, compare.WORSE),
        (_entry(10), _entry(10.01), "lower", 0.0, compare.WORSE),
        (_entry(100, 80, 120), _entry(85, 70, 100), "higher", 0.1, compare.UNRESOLVED),
        (_entry(100, 95, 125), _entry(60, 55, 65), "higher", 0.1, compare.WORSE),
    ],
)
def test_verdict(a, b, better, bound, expected):
    assert compare.verdict(a, b, better, bound) == expected


# -- end to end -------------------------------------------------------------------


def test_smoke_all_four_workloads(tmp_path):
    """--scale 0.1 --passes 1 runs clean, fast, and names every metric."""
    out = tmp_path / "report.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "0.1",
         "--passes", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30
    report = json.loads(out.read_text())
    spec = contract()
    assert set(report["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, result in report["workloads"].items():
        assert set(result["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        assert result["end_to_end"]["verified_share"]["value"] == 1.0
        assert result["failures"] == []
        layers = result["per_layer"]
        assert abs(layers["trace.unattributed_share"]) < 0.01

        def total(prefix):
            return sum(v for k, v in layers.items() if k.startswith(prefix))

        # The bypass predictions hold exactly.
        if name == "kernel-wide":
            assert total("objects.space.") == total("core.algorithm1.") == 0
            assert total("detectors.mu.") == 0
        if name in ("engine-longlog", "async-shortlog"):
            assert total("sim.kernel.") == total("substrates.") == 0
        if name in ("engine-longlog", "kernel-wide"):
            assert total("runtime.async_driver.") == 0
        if name != "campaign-faulted":
            assert layers["faults.injector.hook_calls"] == 0
    assert not os.listdir(os.path.join(HERE, ".tmp"))


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    """With only BENCHMARK.json and the benchmark's files there is no
    program to measure: fail, and print no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".tmp", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "kernel-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
