"""Campaign execution: fan scenarios out, stream rows back, in order.

The executor maps frozen :class:`repro.workloads.spec.ScenarioSpec`
values over worker processes (:class:`concurrent.futures.ProcessPoolExecutor`)
or runs them in-process (``mode="serial"`` — the debugging path and the
byte-identity reference).  Both paths hand every cell to one
module-level unit of a picklable argument (so any start method works):
it runs :func:`execute_spec` under the cell's backstops and stores the
row in the cache where it ran.  The parent only probes the cache, puts
rows in cell order and writes the artifacts.  Hence:

* **Failure isolation** — a scenario that raises, stalls or outruns its
  budget is a ``status="failed"`` row, as is a cell whose worker died;
  the sweep continues.  Only the executor machinery itself (an
  unpicklable spec, an unwritable cache) propagates.
* **Deterministic ordering** — rows come in spec order whichever worker
  finished first, so results files are byte-stable across worker counts.
* **A finished cell is stored** (``cache=``, by ``spec_hash``), drained
  or not: a rerun over the cache replays it, and an interrupted sweep's
  artifacts come out byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import contextlib
import functools
import os
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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

#: Cells probed against the cache (and dispatched) at a time — bounds
#: the rows held in flight regardless of grid size.
CACHE_CHUNK = 256

#: Cells a pool worker takes per dispatch: an interrupted sweep waits
#: for a few batches, and the per-task round trip stays off the wall.
POOL_BATCH = 8


class _CellTimeout(BaseException):
    """The cell's budget ran out (no ``except Exception`` swallows it)."""


#: Set before the timer is armed, cleared by the first alarm and on the
#: way out of the run: an alarm that lands late stops nothing.
_armed = False


def _on_alarm(signum: int, frame: Any) -> None:
    global _armed
    if _armed:
        _armed = False
        raise _CellTimeout


def _timed_run(
    spec: ScenarioSpec, stall_window: Optional[int], budget: Optional[float]
) -> Dict[str, Any]:
    """The cell's row, stopped by :class:`_CellTimeout` after ``budget``
    seconds; the outer ``SIGALRM`` handler and timer are put back."""
    global _armed
    if budget is None:
        return run_scenario(spec, stall_window=stall_window).to_row()
    outer_handler = signal.signal(signal.SIGALRM, _on_alarm)
    outer_delay, outer_interval = signal.getitimer(signal.ITIMER_REAL)
    started = time.monotonic()
    try:
        try:
            _armed = True
            signal.setitimer(signal.ITIMER_REAL, budget)
            return run_scenario(spec, stall_window=stall_window).to_row()
        finally:
            _armed = False
    finally:
        # Reached disarmed however the run ended (an alarm at the edge
        # raises out of the inner block), so nothing interrupts this.
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, outer_handler)
        if outer_delay:
            left = outer_delay - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6), outer_interval)


def _refuse_unarmable(cell_timeout: Optional[float], in_process: bool) -> None:
    """Refuse a budget no cell could arm: it must be positive, with
    ``signal.setitimer`` and, in-process, the main thread."""
    if cell_timeout is not None and (
        cell_timeout <= 0
        or not hasattr(signal, "setitimer")
        or (in_process and threading.current_thread() is not threading.main_thread())
    ):
        raise ValueError(
            f"cell_timeout={cell_timeout!r} cannot be armed: it needs to be "
            f"positive, signal.setitimer and, in-process, the main thread"
        )


def execute_spec(task: Tuple) -> Dict[str, Any]:
    """Run one indexed spec; never raises for scenario-level failures.

    A raising scenario becomes a ``status="failed"`` row that still
    self-describes its spec, so one bad grid point cannot take down a
    sweep.  ``task`` is ``(index, spec[, stall_window[, budget]])``: the
    runner's stall watchdog turns a stall into an ``error="stall"`` row
    carrying the wait-reason histogram, and ``budget`` (seconds) arms a
    one-shot ``SIGALRM`` timer around the run — call from the main
    thread — that turns a run still going into an ``error="timeout"`` row.
    """
    index, spec = task[0], task[1]
    stall_window = task[2] if len(task) > 2 else None
    budget = task[3] if len(task) > 3 else None
    try:
        row = _timed_run(spec, stall_window, budget)
    except _CellTimeout:
        row = _failed_row(spec, "timeout", timeout=budget)
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


def _run_cell(cache: Optional[CampaignCache], task: Tuple) -> Dict[str, Any]:
    """The unit of work: run one cell and store its row where it ran,
    whether or not the parent drains it (``put`` keeps ``ok`` rows only)."""
    row = execute_spec(task)
    if cache is not None:
        cache.put(task[1], row)
    return row


def _write_line(fh: IO[str], line: str) -> None:
    """Append one results.jsonl line, flushed: an interrupted sweep
    leaves at worst one torn line after its row prefix (a rerun
    rewrites the whole file)."""
    fh.write(line + "\n")
    fh.flush()


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
    in-process.  Per :data:`CACHE_CHUNK` cells: probe the cache,
    dispatch the misses, merge hits and fresh rows back into cell order.
    A dead worker breaks the pool: the chunk's undrained cells are
    probed again (a finished one was stored by its worker), the rest
    are ``error="worker-died"`` rows, and the next chunk gets a new
    pool.  On exit, queued cells are cancelled and running ones finish.
    """
    counters = counters if counters is not None else {"cached": 0}
    unit = functools.partial(_run_cell, cache)
    pool: Optional[ProcessPoolExecutor] = None
    try:
        for base in range(0, len(cells), CACHE_CHUNK):
            chunk = cells[base : base + CACHE_CHUNK]
            probes = [(index, spec, cache and cache.get(spec)) for index, spec in chunk]
            units = [
                (index, spec, stall_window, cell_timeout)
                for index, spec, hit in probes
                if hit is None
            ]
            if workers is None:
                fresh: Optional[Iterator[Dict[str, Any]]] = map(unit, units)
            else:
                pool = pool or ProcessPoolExecutor(max_workers=workers)
                fresh = pool.map(unit, units, chunksize=POOL_BATCH)
            for index, spec, row in probes:
                if row is not None:
                    counters["cached"] += 1
                elif fresh is not None:
                    try:
                        row = next(fresh)
                    except BrokenProcessPool:
                        pool.shutdown()
                        pool = fresh = None
                if row is None:  # undrained when its worker died
                    row = cache and cache.get(spec) or _failed_row(spec, "worker-died")
                row["index"] = index
                yield row
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


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
            ``"process"`` always builds the pool, one worker included.
            Asking for ``mode="serial"`` *and* ``workers > 1`` is a
            contradiction and raises :class:`ValueError` — silently
            running serial would mask a misconfigured sweep.
        on_row: optional callback invoked with each row as it streams
            in (progress reporting).
        cache: a :class:`repro.campaign.cache.CampaignCache` (or a
            directory path) — cells with a stored ``ok`` row replay it
            byte-identically instead of executing; each executed ``ok``
            row is stored where it ran.
        out_dir: write the artifacts while running: ``manifest.json``
            before the first row, then each row appended (and flushed) to
            ``results.jsonl`` as it arrives.  The returned report then
            holds no rows (collect them through ``on_row``).  A rerun
            rewrites both files from the first row.
        stall_window: arm the runner's stall watchdog for every cell —
            a cell making no progress for this many rounds past its
            settle horizon fails fast as an ``error="stall"`` row with a
            wait-reason histogram instead of burning its round budget.
        cell_timeout: per-cell wall-clock budget in seconds, armed
            inside the cell in either mode: a cell still running when
            it runs out is an ``error="timeout"`` row, never cached.
            Refused where no cell could arm it (no ``signal.setitimer``,
            or an in-process sweep off the main thread).

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
    pool_workers = workers if mode == "process" else None
    _refuse_unarmable(cell_timeout, in_process=pool_workers is None)
    cache_obj = ensure_cache(cache)
    inventory = sweep_inventory(specs)
    campaign_hash = inventory_hash(name, inventory)

    aggregator = SweepAggregator()
    rows: List[Dict[str, Any]] = []
    counters = {"cached": 0}
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
        executed=len(specs) - counters["cached"],
        cached=counters["cached"],
    )
