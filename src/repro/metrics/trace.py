"""Run instrumentation: per-round counters and a JSONL trace exporter.

The engine (and, more coarsely, the step kernel) report what each round
actually cost: how many processes were *eligible* to act, how many were
scanned versus skipped by the event-driven scheduler, how many actions
fired, how often a quorum guard stalled an operation and how often the
detector oracles were consulted.  Together with the per-process *wait
reasons* reported by :class:`repro.core.algorithm1.Algorithm1Process`,
a trace answers the two questions every scaling experiment asks: where
did the rounds go, and what was everybody waiting for.

Trace format (one JSON object per line):

* ``{"type": "meta", ...}`` — first line: schema version plus free-form
  run metadata supplied by the exporter's caller;
* ``{"type": "round", ...}`` — one line per executed round, see
  :class:`RoundTrace` for the fields;
* ``{"type": "summary", ...}`` — last line: the totals of
  :meth:`TraceRecorder.summary`.

The schema is documented in DESIGN.md ("Run instrumentation") and the
reading guide lives in EXPERIMENTS.md ("Reading a trace").
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

#: Trace schema version, bumped on breaking field changes.
TRACE_SCHEMA_VERSION = 1

#: Wait reasons an action system may report (see Algorithm1Process).
WAIT_QUORUM = "quorum"  # a Sigma_S quorum cannot respond right now
WAIT_GAMMA = "gamma"  # waiting for a gamma-partner position record
WAIT_CONSENSUS = "consensus"  # waiting for CONS_{m,f} availability
WAIT_ORDER = "order"  # waiting for earlier log entries to progress
WAIT_INDICATOR = "indicator"  # strict variant: waiting on 1^{g∩h}
WAIT_IDLE = "idle"  # nothing known to do

WAIT_REASONS = (
    WAIT_QUORUM,
    WAIT_GAMMA,
    WAIT_CONSENSUS,
    WAIT_ORDER,
    WAIT_INDICATOR,
    WAIT_IDLE,
)


@dataclass(slots=True)
class RoundTrace:
    """The counters of one executed round.

    Attributes:
        round: 1-based index of the round within the run.
        time: the global clock after the round's tick.
        eligible: processes that were alive and inside the participation
            set — what a scan-everything engine would have scanned.
        scanned: processes whose action scan actually ran.
        skipped: processes the wake-index proved idle (``eligible -
            scanned``).
        actions: actions fired across the system this round.
        full_scan: whether the scheduler fell back to scanning everyone
            (detector-settle window, participation change, zero budget).
        quorum_queries: quorum-guard evaluations this round.
        quorum_stalls: quorum-guard evaluations that returned False.
        gamma_queries: gamma oracle consultations.
        indicator_queries: indicator oracle consultations.
        wait_reasons: histogram of why scanned-but-idle processes were
            blocked at the end of their scan.
    """

    round: int
    time: int
    eligible: int
    scanned: int
    skipped: int
    actions: int
    full_scan: bool
    quorum_queries: int = 0
    quorum_stalls: int = 0
    gamma_queries: int = 0
    indicator_queries: int = 0
    wait_reasons: Dict[str, int] = field(default_factory=dict)


class TraceRecorder:
    """Accumulates per-round counters for one run.

    The runtime drives it with :meth:`begin_round` / :meth:`end_round`;
    in between, the guards and oracles report events through the
    ``note_*`` methods.  Events reported outside a round (e.g. a direct
    ``quorum_ok`` probe from a test) fall into the next round's window.
    """

    def __init__(self) -> None:
        self.rounds: List[RoundTrace] = []
        # All per-round counters accumulate in plain attributes between
        # begin/end calls; the RoundTrace object is built once per round
        # at end_round (a single batched append instead of per-event
        # dataclass field updates on the scheduler's hot path).
        self._in_round = False
        self._time = 0
        self._eligible = 0
        self._full_scan = False
        self._scanned = 0
        self._skipped = 0
        self._actions = 0
        self._quorum_queries = 0
        self._quorum_stalls = 0
        self._gamma_queries = 0
        self._indicator_queries = 0
        self._wait_reasons: Dict[str, int] = {}
        # Interleaving transitions: compact signatures of *changes* in
        # the (eligible, responders) participation state, reported by
        # ExecutionCore.note_fingerprint.  A whole-run stream — not a
        # per-round counter — because transitions are rare (crash
        # epochs, churn windows) and their *sequence* is the coverage
        # signal the explorer fingerprints schedules by.
        self.transitions: List[str] = []

    # -- Round lifecycle (driven by the engine/kernel) ---------------------

    def begin_round(self, time: int, eligible: int, full_scan: bool) -> None:
        self._in_round = True
        self._time = time
        self._eligible = eligible
        self._full_scan = full_scan
        self._scanned = 0
        self._skipped = 0
        self._actions = 0
        self._quorum_queries = 0
        self._quorum_stalls = 0
        self._gamma_queries = 0
        self._indicator_queries = 0
        self._wait_reasons = {}

    def end_round(self) -> Optional[RoundTrace]:
        if not self._in_round:
            return None
        current = RoundTrace(
            round=len(self.rounds) + 1,
            time=self._time,
            eligible=self._eligible,
            scanned=self._scanned,
            skipped=self._skipped,
            actions=self._actions,
            full_scan=self._full_scan,
            quorum_queries=self._quorum_queries,
            quorum_stalls=self._quorum_stalls,
            gamma_queries=self._gamma_queries,
            indicator_queries=self._indicator_queries,
            wait_reasons=dict(self._wait_reasons),
        )
        self.rounds.append(current)
        self._in_round = False
        return current

    # -- Event sinks (called by guards, oracles, schedulers) ---------------

    def note_scanned(self, fired: int) -> None:
        if self._in_round:
            self._scanned += 1
            self._actions += fired

    def note_skipped(self) -> None:
        if self._in_round:
            self._skipped += 1

    def note_quorum_query(self, available: bool) -> None:
        self._quorum_queries += 1
        if not available:
            self._quorum_stalls += 1

    def note_gamma_query(self) -> None:
        self._gamma_queries += 1

    def note_indicator_query(self) -> None:
        self._indicator_queries += 1

    def note_wait(self, reason: str) -> None:
        self._wait_reasons[reason] = self._wait_reasons.get(reason, 0) + 1

    def note_transition(self, signature: str) -> None:
        """Record one participation-state transition (see ``transitions``)."""
        self.transitions.append(signature)

    # -- Aggregation --------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Whole-run totals, the before/after numbers benchmarks print.

        ``eligible`` is what the seed scan-everything engine would have
        scanned; ``scanned`` is what the event-driven engine did scan —
        their ratio is the headline win of the wake-index.
        """
        eligible = sum(r.eligible for r in self.rounds)
        scanned = sum(r.scanned for r in self.rounds)
        waits: Dict[str, int] = {}
        for r in self.rounds:
            for reason, count in r.wait_reasons.items():
                waits[reason] = waits.get(reason, 0) + count
        return {
            "rounds": len(self.rounds),
            "eligible": eligible,
            "scanned": scanned,
            "skipped": sum(r.skipped for r in self.rounds),
            "actions": sum(r.actions for r in self.rounds),
            "full_scan_rounds": sum(1 for r in self.rounds if r.full_scan),
            "quorum_queries": sum(r.quorum_queries for r in self.rounds),
            "quorum_stalls": sum(r.quorum_stalls for r in self.rounds),
            "gamma_queries": sum(r.gamma_queries for r in self.rounds),
            "indicator_queries": sum(
                r.indicator_queries for r in self.rounds
            ),
            "scan_ratio": (eligible / scanned) if scanned else 0.0,
            "wait_reasons": waits,
            # The interleaving fingerprint: the ordered transition
            # signatures (capped — a pathological schedule cannot bloat
            # the summary) plus the full count, enough for the explorer
            # to tell two schedules apart without storing round logs.
            "interleaving": {
                "transitions": len(self.transitions),
                "signatures": self.transitions[:64],
            },
        }

    # -- Export --------------------------------------------------------------

    def iter_jsonl(
        self, meta: Optional[Mapping[str, Any]] = None
    ) -> Iterator[str]:
        """The trace as JSONL lines: meta, rounds, summary."""
        header: Dict[str, Any] = {
            "type": "meta",
            "schema": TRACE_SCHEMA_VERSION,
        }
        if meta:
            header.update(meta)
        yield json.dumps(header, sort_keys=True, default=str)
        for r in self.rounds:
            body = asdict(r)
            body["type"] = "round"
            yield json.dumps(body, sort_keys=True)
        summary = self.summary()
        summary["type"] = "summary"
        yield json.dumps(summary, sort_keys=True)

    def write_jsonl(
        self, path: str, meta: Optional[Mapping[str, Any]] = None
    ) -> str:
        """Write the trace to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.iter_jsonl(meta):
                fh.write(line + "\n")
        return path


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a trace file back into a list of dicts (tests, tooling)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
