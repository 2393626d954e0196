"""Campaign execution: fan scenarios out, stream rows back, in order.

The executor maps frozen :class:`repro.workloads.spec.ScenarioSpec`
values over worker processes (:class:`concurrent.futures.ProcessPoolExecutor`)
or runs them in-process (``mode="serial"`` — the debugging path and the
byte-identity reference).  Both paths funnel every scenario through the
same module-level :func:`execute_spec`, so a serial and a parallel sweep
of the same campaign produce byte-identical rows.

Two invariants the rest of the subsystem leans on:

* **Failure isolation** — a scenario that raises becomes a
  ``status="failed"`` row carrying the exception and traceback; the
  sweep continues.  Only the executor machinery itself (a broken pool,
  an unpicklable spec) propagates.
* **Deterministic ordering** — rows are emitted in spec order no matter
  which worker finished first (``Executor.map`` preserves submission
  order), so results files are byte-stable across worker counts.

On top of the seed executor this module owns the *scale-out* layer:

* a result cache (``cache=``, :mod:`repro.campaign.cache`) keyed on the
  cell's ``spec_hash`` — which covers its seed, backend and fault plan —
  so reruns execute only new grid cells: a hit replays the stored row
  byte-identically.  It is also how an interrupted sweep continues: the
  rerun replays every cell the killed run finished and executes the
  rest, and the artifacts it writes are byte-identical to an
  uninterrupted run's;
* the artifacts (``out_dir=``, their only writer) — rows go straight
  to ``results.jsonl`` through the :class:`SweepAggregator` without the
  executor retaining them.

``execute_spec`` being a module-level function of a picklable argument
is what keeps the pool start-method agnostic: it works under ``fork``
as well as the spawn semantics Windows and macOS default to.
"""

from __future__ import annotations

import contextlib
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign.aggregate import (
    CampaignReport,
    inventory_hash,
    meta_line,
    row_line,
    summary_line,
    sweep_inventory,
    write_manifest,
)
from repro.campaign.cache import CampaignCache, ensure_cache
from repro.campaign.grid import Campaign
from repro.metrics.sweep import SweepAggregator
from repro.runtime.watchdog import StallError
from repro.workloads.runner import run_scenario, triage_record
from repro.workloads.spec import ScenarioSpec

#: Execution modes of :func:`run_campaign`.
MODES = ("serial", "process")

#: Cells probed against the cache (and dispatched to the pool) at a time
#: when a cache is attached — bounds the rows held in flight regardless
#: of grid size.
CACHE_CHUNK = 256


def execute_spec(task: Tuple[int, ScenarioSpec]) -> Dict[str, Any]:
    """Run one indexed spec; never raises for scenario-level failures.

    This is the single code path both executor modes use (and the unit a
    worker process receives).  A raising scenario is converted into a
    ``status="failed"`` row that still self-describes its spec, so one
    bad grid point cannot take down a sweep.

    ``task`` is ``(index, spec)`` or ``(index, spec, stall_window)`` —
    the third element arms the runner's stall watchdog (see
    :func:`repro.workloads.runner.run_scenario`).  A watchdog-detected
    stall becomes a ``status="failed"`` row with ``error="stall"`` plus
    a ``stall`` payload carrying the wait-reason histogram: the cell
    fails fast and descriptive instead of burning its whole budget.
    """
    index, spec = task[0], task[1]
    stall_window = task[2] if len(task) > 2 else None
    try:
        row = run_scenario(spec, stall_window=stall_window).to_row()
    except StallError as exc:
        row = _failed_row(spec, "stall", stall=exc.to_triage())
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        row = _failed_row(spec, repr(exc), traceback=traceback.format_exc())
    row["index"] = index
    return row


def _failed_row(spec: ScenarioSpec, error: str, **extra: Any) -> Dict[str, Any]:
    """The ``status="failed"`` row of a cell that produced no result.

    ``extra`` is what the failure kind adds (a traceback, the stall
    payload, the blown budget).  The triage record is everything a
    replay needs, greppable from the log alone: spec hash, seed,
    backend, fault plan hash.
    """
    return {
        "name": spec.name,
        "spec_hash": spec.spec_hash(),
        "status": "failed",
        "error": error,
        **extra,
        "triage": triage_record(spec),
        "spec": spec.to_json(),
    }


def _write_line(fh: IO[str], line: str) -> None:
    """Append one results.jsonl line, flushed: an interrupted sweep
    leaves at worst one torn line after its row prefix (a rerun
    rewrites the whole file)."""
    fh.write(line + "\n")
    fh.flush()


def _timed_pool_rows(
    pool: ProcessPoolExecutor,
    batch: Sequence[Tuple[int, ScenarioSpec]],
    tasks: Sequence[Tuple],
    budget: float,
    timed_out: List[bool],
) -> Iterator[Dict[str, Any]]:
    """Pool execution with a per-cell wall-clock budget.

    Futures are submitted up front and drained in cell order; a cell
    whose result is not available ``budget`` seconds after we start
    waiting on it yields a ``status="failed"`` row with
    ``error="timeout"`` and the sweep moves on.  The stuck worker cannot
    be killed without tearing down the whole pool, so it is left to
    finish (or linger) in the background and the pool is shut down
    without waiting at the end — the *sweep* never hangs, which is the
    contract.  Timeout rows are never cached (the cache refuses non-OK
    rows), so a rerun retries the cell.
    """
    futures = [pool.submit(execute_spec, task) for task in tasks]
    for (index, spec), future in zip(batch, futures):
        try:
            yield future.result(timeout=budget)
        except FutureTimeoutError:
            timed_out[0] = True
            yield {**_failed_row(spec, "timeout", timeout=budget), "index": index}


def _iter_cell_rows(
    cells: Sequence[Tuple[int, ScenarioSpec]],
    *,
    workers: Optional[int] = None,
    cache: Optional[CampaignCache] = None,
    counters: Optional[Dict[str, int]] = None,
    stall_window: Optional[int] = None,
    cell_timeout: Optional[float] = None,
) -> Iterator[Dict[str, Any]]:
    """Stream rows for ``(global index, spec)`` cells, in cell order.

    ``workers`` is the process-pool size; ``None`` runs the cells
    in-process.  One worker is still a pool: the per-cell budget needs a
    process it can stop waiting on.

    The cache-aware path works in bounded chunks: probe the cache for
    :data:`CACHE_CHUNK` cells, dispatch only the misses (serially or to
    the pool), then merge hits and fresh rows back into cell order —
    at no point does the generator hold more than a chunk of rows, so
    warm sweeps of arbitrarily large grids stay O(1) memory.  Executed
    rows are stored back into the cache as they stream out.
    """
    counters = counters if counters is not None else {}
    counters.setdefault("executed", 0)
    counters.setdefault("cached", 0)
    tasks = list(cells)
    pool: Optional[ProcessPoolExecutor] = None
    timed_out = [False]
    try:
        if workers is not None:
            pool = ProcessPoolExecutor(max_workers=workers)

        def run_batch(batch: List[Tuple[int, ScenarioSpec]]) -> Iterator[Dict[str, Any]]:
            if not batch:
                return iter(())
            units: List[Tuple] = (
                [(index, spec, stall_window) for index, spec in batch]
                if stall_window is not None
                else list(batch)
            )
            if pool is None:
                return map(execute_spec, units)
            if cell_timeout is not None:
                return _timed_pool_rows(
                    pool, batch, units, cell_timeout, timed_out
                )
            chunksize = max(1, len(batch) // (workers * 4))
            return pool.map(execute_spec, units, chunksize=chunksize)

        if cache is None:
            for row in run_batch(tasks):
                counters["executed"] += 1
                yield row
            return

        for base in range(0, len(tasks), CACHE_CHUNK):
            chunk = tasks[base : base + CACHE_CHUNK]
            probes = [(index, spec, cache.get(spec)) for index, spec in chunk]
            fresh = run_batch(
                [(index, spec) for index, spec, hit in probes if hit is None]
            )
            for index, spec, hit in probes:
                if hit is None:
                    row = next(fresh)
                    cache.put(spec, row)
                    counters["executed"] += 1
                else:
                    row = dict(hit)
                    row["index"] = index
                    counters["cached"] += 1
                yield row
    finally:
        if pool is not None:
            # After a per-cell timeout a worker may still be grinding on
            # the stuck cell; waiting on it would turn a contained cell
            # failure back into a hung sweep.
            if timed_out[0]:
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown()


def run_campaign(
    campaign: Union[Campaign, Sequence[ScenarioSpec]],
    *,
    workers: int = 1,
    mode: Optional[str] = None,
    on_row: Optional[Callable[[Dict[str, Any]], None]] = None,
    cache: Optional[Union[CampaignCache, str]] = None,
    out_dir: Optional[str] = None,
    stall_window: Optional[int] = None,
    cell_timeout: Optional[float] = None,
) -> CampaignReport:
    """Execute a campaign (or a bare spec list) and aggregate the rows.

    Args:
        campaign: a :class:`Campaign` grid, or an already-expanded
            sequence of :class:`ScenarioSpec` values.
        workers: worker processes for ``mode="process"``.
        mode: ``"serial"`` or ``"process"``; default is serial for
            ``workers <= 1`` and a process pool otherwise.  An explicit
            ``"process"`` always builds the pool, one worker included,
            so ``cell_timeout`` is enforced and the reported mode is
            the one that ran.  Asking for ``mode="serial"`` *and*
            ``workers > 1`` is a contradiction and raises
            :class:`ValueError` — silently running serial would mask a
            misconfigured sweep.
        on_row: optional callback invoked with each row as it streams
            in (progress reporting).
        cache: a :class:`repro.campaign.cache.CampaignCache` (or a
            directory path) — cells with a stored ``ok`` row replay it
            byte-identically instead of executing; fresh rows are
            stored back.  ``failed`` rows are never cache-hit.
        out_dir: write the artifacts while running: ``manifest.json``
            before the first row, then each row appended (and flushed) to
            ``results.jsonl`` as it arrives, so an interrupt loses at
            most one torn line.  The artifact then holds the rows and
            the returned report does not (``rows == ()``; collect them
            through ``on_row`` if needed).  A rerun rewrites both
            files from the first row.
        stall_window: arm the runner's stall watchdog for every cell —
            a cell making no progress for this many rounds past its
            settle horizon fails fast as a ``status="failed"`` row with
            ``error="stall"`` and a wait-reason histogram, instead of
            burning its whole round budget.
        cell_timeout: per-cell wall-clock budget in seconds
            (``mode="process"`` only): a cell whose worker blows the
            budget becomes a ``status="failed"`` row with
            ``error="timeout"`` and the sweep continues.  Timeout rows
            are never cached, so a rerun retries the cell.

    Returns:
        a :class:`CampaignReport` whose rows are in spec order and
        whose aggregate summary is independent of ``workers``.
    """
    if isinstance(campaign, Campaign):
        name = campaign.name
        specs = campaign.specs()
    else:
        specs = tuple(campaign)
        name = "adhoc"
    if mode is None:
        mode = "process" if workers > 1 else "serial"
    if mode not in MODES:
        raise ValueError(f"unknown campaign mode {mode!r}; pick from {MODES}")
    if mode == "serial" and workers > 1:
        raise ValueError(
            f"mode='serial' contradicts workers={workers}: a serial sweep "
            f"runs in-process on one worker — drop the workers argument or "
            f"ask for mode='process'"
        )
    if cell_timeout is not None and mode != "process":
        raise ValueError(
            "cell_timeout needs mode='process': an in-process sweep cannot "
            "preempt its own cell — arm stall_window instead"
        )
    pool_workers = workers if mode == "process" else None
    cache_obj = ensure_cache(cache)
    inventory = sweep_inventory(specs)
    campaign_hash = inventory_hash(name, inventory)

    aggregator = SweepAggregator()
    rows: List[Dict[str, Any]] = []
    counters: Dict[str, int] = {"executed": 0, "cached": 0}
    started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        results: Optional[IO[str]] = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            write_manifest(
                os.path.join(out_dir, "manifest.json"),
                name=name,
                campaign_hash=campaign_hash,
                specs=specs,
                inventory=inventory,
            )
            results = stack.enter_context(
                open(os.path.join(out_dir, "results.jsonl"), "w", encoding="utf-8")
            )
            _write_line(results, meta_line(name, campaign_hash, len(specs)))
        for row in _iter_cell_rows(
            list(enumerate(specs)),
            workers=pool_workers,
            cache=cache_obj,
            counters=counters,
            stall_window=stall_window,
            cell_timeout=cell_timeout,
        ):
            aggregator.add(row)
            if on_row is not None:
                on_row(row)
            if results is None:
                rows.append(row)
            else:
                _write_line(results, row_line(row))
        if results is not None:
            _write_line(results, summary_line(aggregator.summary()))
    elapsed = time.perf_counter() - started

    return CampaignReport(
        name=name,
        campaign_hash=campaign_hash,
        specs=specs,
        rows=tuple(rows),
        summary=aggregator.summary(),
        mode=mode,
        workers=pool_workers or 1,
        elapsed=elapsed,
        executed=counters["executed"],
        cached=counters["cached"],
    )
