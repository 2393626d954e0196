"""The exploration corpus: entries that bought novel coverage.

AFL's central data structure, transplanted: a corpus entry is a
scenario spec (the cell identity: spec hash, seed, backend, fault plan,
delay model) remembered because its run contributed at least one
fingerprint nobody had produced before.  Entries are content-addressed
by :func:`repro.workloads.runner.scenario_cache_key` — the same key the
campaign result cache uses — so corpus persistence, result caching and
shrink memoization all speak one address space.

The **energy schedule** decides which parent the mutation engine
breeds from: an entry's energy is ``sum(1 / global_count[fp])`` over
its fingerprints, so entries holding *rare* coverage (fingerprints few
runs produce) are exponentially more attractive than entries whose
coverage everybody reproduces.  Counts accumulate over every evaluated
run, not just admitted entries — a fingerprint that every random draw
hits decays toward zero energy even though some corpus entry owns it.

Persistence is one JSON file per entry under the corpus root (the
campaign cache's layout, :mod:`repro._content`).
Global fingerprint counts are rebuilt from the entries on load; counts
contributed by *rejected* runs are not persisted, so a reloaded corpus
starts with slightly flatter energies than the live one had.  That is a
deliberate trade: exact count persistence would need a write per
evaluation instead of one per admission.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro._content import entry_path, read_entry, write_entry
from repro.explore.coverage import coverage_of
from repro.workloads.runner import scenario_cache_key
from repro.workloads.spec import ScenarioSpec

#: Bumped on breaking changes to the corpus entry layout.
CORPUS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CorpusEntry:
    """One admitted scenario and the coverage it bought.

    Attributes:
        key: the cell's content address (:func:`scenario_cache_key`).
        spec: the full scenario (replayable on its own).
        fingerprints: the run's whole fingerprint set.
        novel: the subset that was unseen at admission time — the
            entry's reason to exist.
    """

    key: str
    spec: ScenarioSpec
    fingerprints: FrozenSet[str]
    novel: FrozenSet[str]

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": CORPUS_SCHEMA_VERSION,
            "key": self.key,
            "spec": self.spec.to_json(),
            "fingerprints": sorted(self.fingerprints),
            "novel": sorted(self.novel),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "CorpusEntry":
        return cls(
            key=data["key"],
            spec=ScenarioSpec.from_json(data["spec"]),
            fingerprints=frozenset(data["fingerprints"]),
            novel=frozenset(data["novel"]),
        )


class Corpus:
    """The admitted entries plus the global fingerprint frequencies.

    Args:
        root: optional persistence directory.  ``None`` keeps the
            corpus in-memory only (tests, one-shot campaigns); a path
            loads any existing entries eagerly and persists admissions
            as they happen.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root
        self.entries: Dict[str, CorpusEntry] = {}
        #: fingerprint -> number of evaluated runs that produced it.
        self.counts: Dict[str, int] = {}
        self.evaluated = 0
        self.admitted = 0
        if root is not None and os.path.isdir(root):
            self._load(root)

    # -- Persistence -------------------------------------------------------

    def _path(self, key: str) -> str:
        return entry_path(self.root, key)

    def _load(self, root: str) -> None:
        for shard in sorted(os.listdir(root)):
            shard_dir = os.path.join(root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                data = read_entry(os.path.join(shard_dir, name))
                if (
                    not isinstance(data, dict)
                    or data.get("schema") != CORPUS_SCHEMA_VERSION
                ):
                    continue
                try:
                    entry = CorpusEntry.from_json(data)
                except (ValueError, KeyError):
                    continue  # corruption is a missing entry, never a crash
                self.entries[entry.key] = entry
                for fp in entry.fingerprints:
                    self.counts[fp] = self.counts.get(fp, 0) + 1

    def _persist(self, entry: CorpusEntry) -> None:
        if self.root is not None:
            write_entry(self._path(entry.key), entry.to_json())

    # -- Admission ---------------------------------------------------------

    def consider(
        self, spec: ScenarioSpec, row: Mapping[str, Any]
    ) -> Tuple[Optional[CorpusEntry], FrozenSet[str]]:
        """Account one evaluated run; admit it if it bought coverage.

        Returns ``(entry or None, the novel fingerprints)``.  Counts
        are updated for *every* fingerprint of every evaluated run —
        that is what makes energies decay on common behaviour.
        """
        fps = coverage_of(row)
        novel = frozenset(fp for fp in fps if fp not in self.counts)
        self.evaluated += 1
        for fp in fps:
            self.counts[fp] = self.counts.get(fp, 0) + 1
        if not novel:
            return None, novel
        entry = CorpusEntry(
            key=scenario_cache_key(spec),
            spec=spec,
            fingerprints=fps,
            novel=novel,
        )
        self.entries[entry.key] = entry
        self.admitted += 1
        self._persist(entry)
        return entry, novel

    # -- Energy schedule ---------------------------------------------------

    def energy(self, entry: CorpusEntry) -> float:
        """Rarity-weighted attractiveness of an entry for mutation."""
        return sum(
            1.0 / self.counts.get(fp, 1) for fp in entry.fingerprints
        )

    def pick(self, rng: random.Random) -> Optional[CorpusEntry]:
        """An energy-weighted draw from the corpus (None when empty).

        Iteration order is the sorted key order, so the draw is a pure
        function of ``(corpus state, rng state)``.
        """
        if not self.entries:
            return None
        keys = sorted(self.entries)
        weights = [self.energy(self.entries[k]) for k in keys]
        total = sum(weights)
        if total <= 0:
            return self.entries[rng.choice(keys)]
        point = rng.random() * total
        acc = 0.0
        for key, weight in zip(keys, weights):
            acc += weight
            if point <= acc:
                return self.entries[key]
        return self.entries[keys[-1]]

    # -- Reporting ---------------------------------------------------------

    def distinct_coverage(self) -> int:
        """How many distinct fingerprints all evaluated runs produced."""
        return len(self.counts)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self.entries),
            "distinct_fingerprints": len(self.counts),
            "evaluated": self.evaluated,
            "admitted": self.admitted,
        }
