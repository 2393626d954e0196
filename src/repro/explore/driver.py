"""The explorer driver: a budgeted coverage-guided search campaign.

One :class:`Explorer` iteration is the classic fuzzing loop transplanted
onto scenario specs:

1. **choose** — with probability :data:`EPSILON` (or always, before the
   corpus has entries) draw a fresh adversary for a random base scenario
   via :func:`repro.faults.nemesis.random_plan`; otherwise pick an
   energy-weighted corpus parent and breed from it with the
   :class:`repro.explore.mutate.MutationEngine` (a second corpus pick
   serves as the splice partner);
2. **evaluate** — run the spec through the same code path the campaign
   executor uses (:func:`repro.campaign.executor.execute_spec`), fronted
   by the shared :class:`repro.campaign.cache.CampaignCache`: a cell the
   nightly sweep already ran is a cache hit, not a re-run;
3. **account** — feed the row to the corpus (novel fingerprints admit
   the spec as a future parent) and append one point to the
   coverage-vs-iterations curve;
4. **triage** — when the row violates (a checker fires, the run is
   truncated, or the harness itself crashes), run ddmin
   (:func:`repro.faults.shrink.shrink_plan`) with step 2 as its
   predicate — a probe is evaluated and judged exactly like the witness
   was, through the same cache, but never fed to the corpus or the
   curve — write a self-contained repro file, and deduplicate by
   ``(harness, violated properties, shrunk plan hash)`` — a hundred
   witnesses of one bug are one triage record with ``count=100``.

``strategy="random"`` disables steps 1's corpus half (every draw is a
fresh ``random_plan``), which is exactly the ablation the committed
guided-vs-random coverage curves compare against.

Everything is deterministic given ``(bases, seed, budget)``: the single
``random.Random(f"explore:{seed}")`` stream drives every choice, runs
are pure functions of their specs, and corpus iteration order is sorted.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.cache import CampaignCache, ensure_cache
from repro.campaign.executor import execute_spec
from repro.explore.corpus import Corpus
from repro.explore.mutate import MutationEngine
from repro.faults.nemesis import MIXES, random_plan
from repro.faults.plan import FaultPlan
from repro.faults.shrink import repro_payload, shrink_plan, write_repro
from repro.workloads.runner import triage_record
from repro.workloads.spec import ScenarioSpec

#: Exploration strategies: ``guided`` is the coverage-guided search,
#: ``random`` the pure-sampling ablation (fresh ``random_plan`` draws
#: only, no corpus feedback).
STRATEGIES = ("guided", "random")

#: The guided search's fresh-draw probability once the corpus is
#: non-empty; the rest of its draws breed from a corpus parent.
EPSILON = 0.25

#: The judge every triage key, record and repro file names: the real
#: system, run by :func:`execute_spec` and read off its row.
HARNESS = "scenario"

#: Error types that mark an *inadmissible probe*, not a violation.
#: Mutated events are admissible one by one (the ``FaultEvent``
#: constructor guarantees it), but a plan can still fail against its
#: run: :meth:`repro.faults.injector.FaultInjector.perturb_pattern`
#: raises ``AdmissibilityError`` on a target index the topology lacks,
#: and the runner raises it when the post-run
#: :meth:`repro.faults.injector.FaultInjector.audit` finds a violation.
#: Either way the *adversary* left the model, not the system: the
#: paper's results only quantify over admissible environments, so the
#: probe is counted (and its error fingerprint still buys coverage) but
#: never triaged.
INADMISSIBLE_ERRORS = ("AdmissibilityError",)


def error_type(row: Dict[str, Any]) -> str:
    """The exception class name of a ``failed`` row."""
    error = str(row.get("error", ""))
    return error.split("(", 1)[0].strip() or "unknown"


@dataclass
class ExploreReport:
    """Everything one exploration campaign produced.

    ``curve`` is the per-iteration ``(coverage, distinct violations)``
    series — the artifact the guided-vs-random comparison plots.
    ``triage`` is the deduplicated violation ledger, one record per
    distinct ``(harness, violated properties, shrunk plan hash)``.
    """

    strategy: str
    harness: str
    seed: int
    iterations: int
    elapsed: float
    coverage: int
    corpus: Dict[str, int]
    inadmissible: int = 0
    curve: List[Dict[str, int]] = field(default_factory=list)
    triage: List[Dict[str, Any]] = field(default_factory=list)
    cache: Optional[Dict[str, int]] = None
    #: True when the campaign stopped early on a stop request (SIGINT /
    #: SIGTERM) rather than exhausting its budget — the report is then
    #: *partial* but internally consistent: the in-flight iteration
    #: completed and every corpus entry and evaluated cell is on disk.
    interrupted: bool = False

    @property
    def triage_keys(self) -> List[str]:
        return [record["key"] for record in self.triage]

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": "explore-report",
            "strategy": self.strategy,
            "harness": self.harness,
            "seed": self.seed,
            "iterations": self.iterations,
            "elapsed": round(self.elapsed, 3),
            "coverage": self.coverage,
            "corpus": self.corpus,
            "inadmissible": self.inadmissible,
            "curve": self.curve,
            "triage": self.triage,
            "cache": self.cache,
            "interrupted": self.interrupted,
        }

    def write(self, out_dir: str) -> str:
        """Write ``report.json`` into ``out_dir``; returns its path."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


class Explorer:
    """The coverage-guided fault/schedule explorer.

    Args:
        bases: the base scenarios to explore around (fault-free cells;
            the search never mutates their workload half — topology,
            sends, crashes — only the adversary axes).
        seed: the campaign seed; the whole run is a pure function of
            ``(bases, seed, budget, caches on disk)``.
        strategy: ``"guided"`` or ``"random"`` (the ablation).
        corpus: a :class:`Corpus`, a directory path, or ``None`` for an
            in-memory corpus.
        cache: campaign result cache (instance, path or ``None``);
            search iterations and shrink probes share it.
        out_dir: where repro files are written (``None`` keeps payloads
            in the triage records only).

    The async delay-model mutation axis is in play when some base runs
    on ``backend="async"``.
    """

    def __init__(
        self,
        bases: Sequence[ScenarioSpec],
        seed: int = 0,
        strategy: str = "guided",
        corpus: Optional[Any] = None,
        cache: Optional[Any] = None,
        out_dir: Optional[str] = None,
    ) -> None:
        if not bases:
            raise ValueError("explorer needs at least one base scenario")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; pick from {STRATEGIES}"
            )
        self.bases = tuple(bases)
        self.seed = seed
        self.strategy = strategy
        if isinstance(corpus, str):
            corpus = Corpus(corpus)
        self.corpus = corpus if corpus is not None else Corpus()
        self.cache: Optional[CampaignCache] = ensure_cache(cache)
        self.out_dir = out_dir
        self.mutate_delay = any(base.backend == "async" for base in self.bases)
        self.rng = random.Random(f"explore:{seed}")
        self.iterations = 0
        self.executed = 0
        self.cache_hits = 0
        self.violations = 0
        self.inadmissible = 0
        self.curve: List[Dict[str, int]] = []
        #: triage key -> deduplicated violation record.
        self.triage: Dict[str, Dict[str, Any]] = {}
        #: original cell address -> triage key (skips re-shrinking an
        #: already-triaged cell the search stumbles on again).
        self._triaged_cells: Dict[str, str] = {}

    # -- Choosing the next spec --------------------------------------------

    def _engine_for(self, spec: ScenarioSpec) -> MutationEngine:
        topology = spec.topology
        return MutationEngine(
            process_count=topology.process_count,
            groups=tuple(name for name, _ in topology.groups),
            mutate_delay=self.mutate_delay,
        )

    def _fresh(self) -> ScenarioSpec:
        """A fresh adversary: random base, random seed, random_plan mix."""
        base = self.rng.choice(self.bases)
        seed = self.rng.randrange(1 << 16)
        mix = self.rng.choice(MIXES)
        topology = base.topology
        plan = random_plan(
            seed,
            mix,
            process_count=topology.process_count,
            groups=tuple(name for name, _ in topology.groups),
        )
        return dataclasses.replace(
            base,
            seed=seed,
            faults=None if plan.is_empty() else plan,
            name=f"{base.backend}:{mix}:s{seed}:f{plan.plan_hash()[:6]}",
        )

    def _next_spec(self) -> ScenarioSpec:
        if (
            self.strategy == "random"
            or not self.corpus.entries
            or self.rng.random() < EPSILON
        ):
            return self._fresh()
        parent = self.corpus.pick(self.rng)
        assert parent is not None  # entries is non-empty
        partner = self.corpus.pick(self.rng)
        engine = self._engine_for(parent.spec)
        child = engine.mutate(
            parent.spec,
            self.rng,
            partner=partner.spec if partner is not None else None,
        )
        plan = child.faults or FaultPlan()
        return dataclasses.replace(
            child,
            name=(
                f"{child.backend}:mut:s{child.seed}"
                f":f{plan.plan_hash()[:6]}"
            ),
        )

    # -- Evaluation ---------------------------------------------------------

    def _evaluate(self, spec: ScenarioSpec) -> Dict[str, Any]:
        if self.cache is not None:
            row = self.cache.get(spec)
            if row is not None:
                self.cache_hits += 1
                return row
        row = execute_spec((0, spec))
        self.executed += 1
        if self.cache is not None:
            self.cache.put(spec, row)
        return row

    def _violates(self, spec: ScenarioSpec) -> bool:
        """The shrinker's predicate: the search's own judgement."""
        return bool(self.violated_properties(self._evaluate(spec)))

    @staticmethod
    def violated_properties(row: Dict[str, Any]) -> List[str]:
        """The violation labels of one row (empty = clean run).

        A harness crash is labelled by its error type — except the
        :data:`INADMISSIBLE_ERRORS`, which mean the adversary left the
        admissibility envelope and the run proves nothing (empty, like
        a clean run; the driver counts these separately).  A truncated
        run carries the pseudo-property ``"truncated"`` (it never
        witnessed Termination — the stall class of bug).
        """
        if row.get("status") != "ok":
            etype = error_type(row)
            if etype in INADMISSIBLE_ERRORS:
                return []
            return [f"harness-error:{etype}"]
        violated = sorted(
            prop
            for prop, count in (row.get("verdicts") or {}).items()
            if count
        )
        if row.get("truncated"):
            violated.append("truncated")
        return violated

    # -- Triage -------------------------------------------------------------

    def _triage_violation(
        self,
        spec: ScenarioSpec,
        row: Dict[str, Any],
        violated: List[str],
        iteration: int,
    ) -> None:
        self.violations += 1
        label = ",".join(violated)
        cell = spec.spec_hash()
        known = self._triaged_cells.get(cell)
        if known is not None:
            self.triage[known]["count"] += 1
            return

        original = spec.faults or FaultPlan()
        minimal = shrinker = None
        if row.get("status") == "ok":
            # A harness crash is triaged unshrunk; anything else shrinks
            # under the judgement that flagged it.
            minimal, shrinker = shrink_plan(spec, violates=self._violates)
        triaged_plan = minimal if minimal is not None else original
        plan_hash = triaged_plan.plan_hash()
        key = f"{HARNESS}|{label}|{plan_hash}"
        self._triaged_cells[cell] = key
        existing = self.triage.get(key)
        if existing is not None:
            existing["count"] += 1
            return

        record: Dict[str, Any] = {
            "key": key,
            "harness": HARNESS,
            "properties": violated,
            "plan_hash": plan_hash,
            "count": 1,
            "first_iteration": iteration,
            "witness": triage_record(spec),
            "original_events": len(original),
        }
        if minimal is not None:
            payload = repro_payload(
                spec, minimal, original, harness=HARNESS, shrinker=shrinker
            )
            record["minimal_events"] = len(minimal)
            record["minimal_plan"] = minimal.to_json()
            record["shrink"] = payload["shrink"]
            if self.out_dir is not None:
                os.makedirs(self.out_dir, exist_ok=True)
                name = (
                    f"repro-{len(self.triage):03d}-{plan_hash[:10]}.json"
                )
                write_repro(os.path.join(self.out_dir, name), payload)
                record["repro"] = name
            else:
                record["payload"] = payload
        self.triage[key] = record

    # -- The loop -----------------------------------------------------------

    def run(
        self,
        iterations: Optional[int] = None,
        wall_budget: Optional[float] = None,
        should_stop: Optional[Any] = None,
    ) -> ExploreReport:
        """Explore until either budget is spent; returns the report.

        At least one of ``iterations`` (step budget) and ``wall_budget``
        (seconds) must be given; with both, whichever runs out first
        stops the campaign.  Calling ``run`` again continues the same
        search (the rng, corpus and triage ledger persist on the
        instance), which is how a soak lane strings fixed-size bursts
        together under one wall clock.

        ``should_stop`` (a nullary callable) is polled between
        iterations: when it returns True the campaign stops at that
        boundary and the report comes back with ``interrupted=True``.
        Nothing is lost on an interrupt — the corpus and result cache
        persist write-through per entry, so the partial report plus the
        on-disk state are exactly the campaign prefix that ran.
        """
        if iterations is None and wall_budget is None:
            raise ValueError(
                "explorer needs a budget: iterations, wall_budget or both"
            )
        start = time.monotonic()
        done = 0
        interrupted = False
        while True:
            if should_stop is not None and should_stop():
                interrupted = True
                break
            if iterations is not None and done >= iterations:
                break
            if (
                wall_budget is not None
                and time.monotonic() - start >= wall_budget
            ):
                break
            spec = self._next_spec()
            row = self._evaluate(spec)
            self.corpus.consider(spec, row)
            if (
                row.get("status") != "ok"
                and error_type(row) in INADMISSIBLE_ERRORS
            ):
                self.inadmissible += 1
            violated = self.violated_properties(row)
            if violated:
                self._triage_violation(
                    spec, row, violated, iteration=self.iterations + done
                )
            done += 1
            self.curve.append(
                {
                    "iteration": self.iterations + done,
                    "coverage": self.corpus.distinct_coverage(),
                    "violations": self.violations,
                    "distinct_triage": len(self.triage),
                }
            )
        self.iterations += done
        return self.report(
            elapsed=time.monotonic() - start, interrupted=interrupted
        )

    def report(
        self, elapsed: float = 0.0, interrupted: bool = False
    ) -> ExploreReport:
        """The campaign report (triage records sorted by first sighting)."""
        records = sorted(
            self.triage.values(), key=lambda r: r["first_iteration"]
        )
        return ExploreReport(
            strategy=self.strategy,
            harness=HARNESS,
            seed=self.seed,
            iterations=self.iterations,
            elapsed=elapsed,
            coverage=self.corpus.distinct_coverage(),
            corpus=self.corpus.stats(),
            inadmissible=self.inadmissible,
            curve=list(self.curve),
            triage=records,
            cache=self.cache.stats() if self.cache is not None else None,
            interrupted=interrupted,
        )
