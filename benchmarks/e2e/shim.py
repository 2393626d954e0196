"""The tracing shim: spans around the calls into each layer, from outside.

Nothing in ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
the callables named in :data:`SEAMS` with wrappers that record one span
``[name, start, end, parent, cell]`` per call; :meth:`Tracer.uninstall`
puts the original attributes back.  Spans stay in memory until the pass
ends.  A layer is a module; its ``_s`` metrics are *self* time — a span's
duration minus the part its child spans cover — so the per-layer seconds of
a pass add up to the time spent under the root spans.

A seam whose ``time`` is ``None`` is count-only: it bumps a counter and
opens no span, so its time stays with the caller's layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``[name, start, end, parent index or -1, cell index or -1]``.
Span = List[Any]

#: Folds of a seam's observed value into its metric.
SUM, MAX = "sum", "max"

ASYNC_RUN = "AsyncDriver.run"

#: The span that opens a cell: its task argument is ``(grid index, spec, ...)``
#: and every span recorded until the next one carries that index.
CELL_ROOT = "execute_spec"


@dataclass(frozen=True)
class Seam:
    """One wrapped callable and the metrics its spans feed.

    Attributes:
        module: dotted module that defines ``owner`` (or the function).
        owner: class name, or ``""`` for a module-level function — those
            are replaced in every ``repro`` module that imported them.
        attr: attribute name of the callable.
        time: metric that receives the spans' self time; ``None`` makes
            the seam count-only.
        calls: metric that counts the calls.
        observe: ``(metric, SUM | MAX, fn(args, result) -> number)`` — a
            value read off each call, for ratios taken where the work is.
        under: count-only seams count only while the innermost open span
            has this name.
    """

    module: str
    owner: str
    attr: str
    time: Optional[str]
    calls: Optional[str] = None
    observe: Optional[Tuple[str, str, Callable[[tuple, Any], float]]] = None
    under: Optional[str] = None

    @property
    def span_name(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


def _result(_args: tuple, result: Any) -> float:
    return result


def _kernel_sent(args: tuple, _result: Any) -> float:
    return args[0].buffer.sent_count


def _space(attr: str, metric: str, owner: str = "LogHandle", **kw: Any) -> Seam:
    return Seam(
        "repro.objects.space", owner, attr,
        f"objects.space.{metric}_s", f"objects.space.{metric}_calls", **kw,
    )


_APPEND_MAX = ("objects.space.max_log_len", MAX, _result)

SEAMS: Tuple[Seam, ...] = (
    # campaign
    Seam("repro.campaign.executor", "", "run_campaign", "campaign.executor.self_s"),
    Seam("repro.campaign.executor", "", "execute_spec",
         "campaign.executor.self_s", "campaign.executor.cells"),
    Seam("repro.campaign.cache", "CampaignCache", "get",
         "campaign.cache.get_s", "campaign.cache.get_calls"),
    Seam("repro.campaign.cache", "CampaignCache", "put",
         "campaign.cache.put_s", "campaign.cache.put_calls"),
    # workloads
    Seam("repro.workloads.spec", "ScenarioSpec", "spec_hash",
         "workloads.spec.hash_s", "workloads.spec.hash_calls"),
    Seam("repro.workloads.spec", "ScenarioSpec", "build_topology", "workloads.spec.build_s"),
    Seam("repro.workloads.spec", "ScenarioSpec", "build_pattern", "workloads.spec.build_s"),
    Seam("repro.workloads.runner", "", "run_scenario", "workloads.runner.run_self_s"),
    Seam("repro.workloads.runner", "ScenarioResult", "to_row", "workloads.runner.to_row_self_s"),
    # props
    Seam("repro.props.batch", "", "batch_verdicts",
         "props.batch.verdicts_s", "props.batch.calls"),
    Seam("repro.props.checkers", "", "check_ordering", "props.checkers.ordering_s"),
    # core.engine
    Seam("repro.core.engine", "MulticastSystem", "__init__", "core.engine.build_s"),
    Seam("repro.core.engine", "MulticastSystem", "quorum_ok",
         "core.engine.quorum_ok_s", "core.engine.quorum_ok_calls"),
    Seam("repro.core.engine", "MulticastSystem", "tick", "core.engine.self_s"),
    Seam("repro.core.engine", "MulticastSystem", "run", "core.engine.self_s"),
    # groups.topology
    *(
        Seam("repro.groups.topology", "GroupTopology", attr,
             "groups.topology.self_s", "groups.topology.calls")
        for attr in ("cyclic_families", "families_of_group", "cyclic_partners")
    ),
    # detectors
    Seam("repro.detectors.mu", "Mu", "__init__", "detectors.mu.build_s"),
    *(
        Seam(module, owner, attr, "detectors.query_s", "detectors.query_calls")
        for module, owner, attr in (
            ("repro.detectors.mu", "Mu", "gamma_partners"),
            ("repro.detectors.quorum", "SigmaOracle", "query"),
            ("repro.detectors.leader", "OmegaOracle", "query"),
            ("repro.detectors.cyclicity", "GammaOracle", "query"),
            ("repro.substrates.consensus", "OmegaSigmaSampler", "query"),
        )
    ),
    # runtime.scheduler
    Seam("repro.runtime.scheduler", "Scheduler", "round",
         "runtime.scheduler.self_s", "runtime.scheduler.rounds"),
    Seam("repro.runtime.scheduler", "Scheduler", "run", "runtime.scheduler.self_s"),
    # core.algorithm1
    Seam("repro.core.algorithm1", "Algorithm1Process", "try_actions",
         "core.algorithm1.self_s", "core.algorithm1.try_calls",
         observe=("core.algorithm1.actions", SUM, _result)),
    # objects.space (IntersectionLogHandle overrides both mutations)
    _space("append", "append", observe=_APPEND_MAX),
    _space("append", "append", owner="IntersectionLogHandle", observe=_APPEND_MAX),
    _space("bump_and_lock", "bump"),
    _space("bump_and_lock", "bump", owner="IntersectionLogHandle"),
    _space("messages_before", "messages_before"),
    *(
        _space(attr, "read")
        for attr in (
            "pos", "locked", "precedes", "__contains__", "messages",
            "position_records_for", "stabilization_records_for",
        )
    ),
    _space("propose", "propose", owner="ConsensusHandle"),
    # sim.kernel
    Seam("repro.sim.kernel", "Kernel", "step_process", "sim.kernel.self_s", "sim.kernel.steps"),
    Seam("repro.sim.kernel", "Kernel", "round", "sim.kernel.self_s"),
    Seam("repro.sim.kernel", "Kernel", "run", "sim.kernel.self_s",
         observe=("sim.kernel.messages", SUM, _kernel_sent)),
    # substrates: the replicated log drives its slots' consensus automata
    # through _handle/_progress, never through on_step.
    Seam("repro.substrates.replicated_log", "ReplicatedLogAutomaton", "on_step",
         "substrates.replicated_log.self_s", "substrates.replicated_log.on_step_calls"),
    Seam("repro.substrates.replicated_log", "ReplicatedLogCluster", "__init__",
         "substrates.replicated_log.build_s"),
    Seam("repro.substrates.consensus", "ConsensusAutomaton", "_handle",
         "substrates.consensus.self_s", "substrates.consensus.handle_calls"),
    Seam("repro.substrates.consensus", "ConsensusAutomaton", "_progress",
         "substrates.consensus.self_s", "substrates.consensus.progress_calls"),
    Seam("repro.substrates.consensus", "ConsensusAutomaton", "on_step",
         "substrates.consensus.self_s"),
    # model.messages
    Seam("repro.model.messages", "MessageBuffer", "send",
         "model.messages.self_s", "model.messages.send_calls"),
    Seam("repro.model.messages", "MessageBuffer", "broadcast",
         "model.messages.self_s", "model.messages.send_calls"),
    Seam("repro.model.messages", "MessageBuffer", "receive",
         "model.messages.self_s", "model.messages.receive_calls"),
    Seam("repro.model.messages", "MessageBuffer", "release", "model.messages.self_s"),
    Seam("repro.model.messages", "MessageBuffer", "drop_all_for", "model.messages.self_s"),
    # runtime.async_driver / runtime.delay
    Seam("repro.runtime.async_driver", "AsyncDriver", "run", "runtime.async_driver.self_s"),
    Seam("repro.runtime.actors", "SharedObjectActor", "fire", None,
         "runtime.async_driver.fires", under=ASYNC_RUN),
    *(
        Seam("repro.runtime.delay", owner, "latency",
             "runtime.delay.self_s", "runtime.delay.samples")
        for owner in ("FixedDelay", "UniformDelay", "ExponentialDelay", "SlowPairsDelay")
    ),
    # faults.injector
    Seam("repro.faults.injector", "", "injector_for", "faults.injector.build_s"),
    Seam("repro.faults.injector", "FaultInjector", "perturb_pattern", "faults.injector.build_s"),
    *(
        Seam("repro.faults.injector", "FaultInjector", attr,
             "faults.injector.hook_s", "faults.injector.hook_calls")
        for attr in (
            "on_send", "pick_receive", "suppresses",
            "sigma_noisy", "omega_unstable", "link_clear",
        )
    ),
    Seam("repro.faults.injector", "FaultInjector", "audit", "faults.injector.audit_s"),
    # metrics.trace
    Seam("repro.metrics.trace", "TraceRecorder", "begin_round", None, "metrics.trace.round_calls"),
    Seam("repro.metrics.trace", "TraceRecorder", "summary", "metrics.trace.summary_s"),
)


class Tracer:
    """Holds the spans of one pass and the patches that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.observed: Dict[str, float] = {}
        #: Index of the cell whose spans are being recorded (-1: none).
        self.cell = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- Patching ------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, seams: Sequence[Seam] = SEAMS) -> None:
        """Replace every seam's callable with its recording wrapper."""
        replaced: Dict[Any, Any] = {}
        for seam in seams:
            module = importlib.import_module(seam.module)
            if seam.owner:
                owner = getattr(module, seam.owner)
                self._set(owner, seam.attr, self._wrap(seam, owner.__dict__[seam.attr]))
                continue
            original = getattr(module, seam.attr)
            wrapper = self._wrap(seam, original)
            replaced[original] = wrapper
            for name, other in list(sys.modules.items()):
                if name.partition(".")[0] != "repro" or other is None:
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapper)
        # batch_verdicts reads its checkers from this tuple, not by name.
        batch = importlib.import_module("repro.props.batch")
        self._set(
            batch,
            "BATCH_CHECKS",
            tuple((name, replaced.get(fn, fn)) for name, fn in batch.BATCH_CHECKS),
        )

    def uninstall(self) -> None:
        """Put back, by identity, every attribute :meth:`install` replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, seam: Seam, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, observed = self.counts, self.observed
        name = seam.span_name
        if seam.time is None:
            metric, under = seam.calls, seam.under

            def counter(*args: Any, **kwargs: Any) -> Any:
                if under is None or (stack and spans[stack[-1]][0] == under):
                    counts[metric] = counts.get(metric, 0) + 1
                return fn(*args, **kwargs)

            return counter

        observe = seam.observe
        is_cell = name == CELL_ROOT

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if is_cell:
                self.cell = args[0][0]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cell]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                key, fold, read = observe
                value = read(args, result)
                if fold == MAX:
                    if value > observed.get(key, 0):
                        observed[key] = value
                else:
                    observed[key] = observed.get(key, 0) + value
            return result

        return wrapper


# -- Span arithmetic ----------------------------------------------------------


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def root_seconds(spans: Sequence[Span]) -> float:
    """Time covered by spans that have no parent."""
    return sum(span[2] - span[1] for span in spans if span[3] < 0)


def seam_totals(
    spans: Sequence[Span], seams: Sequence[Seam] = SEAMS
) -> Dict[str, float]:
    """Self seconds per ``time`` metric and calls per ``calls`` metric."""
    by_name: Dict[str, Seam] = {}
    for seam in seams:
        if seam.time is not None:
            by_name.setdefault(seam.span_name, seam)
    totals: Dict[str, float] = {}
    for seam in by_name.values():
        totals.setdefault(seam.time, 0.0)
        if seam.calls is not None:
            totals.setdefault(seam.calls, 0)
    for span, own in zip(spans, self_times(spans)):
        seam = by_name[span[0]]
        totals[seam.time] += own
        if seam.calls is not None:
            totals[seam.calls] += 1
    return totals


def layer_of(metric: str) -> str:
    """The layer (module) a per-layer metric belongs to."""
    return metric.rpartition(".")[0]
