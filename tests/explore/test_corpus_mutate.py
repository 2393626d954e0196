"""The corpus (admission, energy, persistence) and the mutation engine."""

import json
import random

import pytest

from repro.campaign.executor import execute_spec
from repro.explore.corpus import Corpus
from repro.explore.mutate import MAX_STACK, MutationEngine, random_event
from repro.faults.nemesis import random_plan
from repro.faults.plan import FaultEvent, FaultPlan
from repro.model.errors import SimulationError
from repro.workloads.runner import Send
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

TOPO = TopologySpec.capture(disjoint_topology(2, group_size=3))
GROUPS = tuple(name for name, _ in TOPO.groups)
SENDS = (Send(1, "g1", 0), Send(4, "g2", 0))


def spec(**overrides):
    base = dict(topology=TOPO, sends=SENDS, seed=5, max_rounds=240)
    base.update(overrides)
    return ScenarioSpec(**base)


def evaluated(s):
    return s, execute_spec((0, s))


class TestCorpusAdmission:
    def test_first_run_is_admitted_second_identical_is_not(self):
        corpus = Corpus()
        s, row = evaluated(spec())
        entry, novel = corpus.consider(s, row)
        assert entry is not None and novel
        again, novel2 = corpus.consider(s, row)
        assert again is None and not novel2
        assert corpus.evaluated == 2 and corpus.admitted == 1

    def test_counts_accumulate_over_every_run(self):
        corpus = Corpus()
        s, row = evaluated(spec())
        corpus.consider(s, row)
        corpus.consider(s, row)
        assert all(count == 2 for count in corpus.counts.values())

    def test_novel_subset_is_the_reason_to_exist(self):
        corpus = Corpus()
        s1, row1 = evaluated(spec(seed=1))
        corpus.consider(s1, row1)
        s2, row2 = evaluated(
            spec(seed=2, faults=random_plan(
                2, "full", process_count=6, groups=GROUPS))
        )
        entry, novel = corpus.consider(s2, row2)
        if entry is not None:  # novel coverage: strictly the unseen part
            assert entry.novel == novel
            assert novel <= entry.fingerprints
            assert not (novel & set(corpus.entries[
                s1.spec_hash()].fingerprints))


class TestEnergySchedule:
    def test_rare_coverage_has_more_energy(self):
        corpus = Corpus()
        common, row_common = evaluated(spec(seed=1))
        corpus.consider(common, row_common)
        # Re-evaluate the common entry's coverage many times: its
        # fingerprints become cheap.
        for _ in range(10):
            corpus.consider(common, row_common)
        rare, row_rare = evaluated(
            spec(seed=9, faults=random_plan(
                9, "full", process_count=6, groups=GROUPS))
        )
        entry_rare, novel = corpus.consider(rare, row_rare)
        if entry_rare is None:
            pytest.skip("faulted run bought no coverage on this seed")
        entry_common = corpus.entries[common.spec_hash()]
        assert corpus.energy(entry_rare) > corpus.energy(entry_common)

    def test_pick_is_deterministic(self):
        corpus = Corpus()
        for seed in range(4):
            corpus.consider(*evaluated(spec(seed=seed)))
        picks_a = [corpus.pick(random.Random(7)).key for _ in range(3)]
        picks_b = [corpus.pick(random.Random(7)).key for _ in range(3)]
        assert picks_a == picks_b

    def test_empty_corpus_picks_nothing(self):
        assert Corpus().pick(random.Random(0)) is None


class TestPersistence:
    def test_round_trip(self, tmp_path):
        root = str(tmp_path / "corpus")
        corpus = Corpus(root)
        for seed in range(3):
            corpus.consider(*evaluated(spec(seed=seed)))
        reloaded = Corpus(root)
        assert set(reloaded.entries) == set(corpus.entries)
        for key, entry in corpus.entries.items():
            twin = reloaded.entries[key]
            assert twin.fingerprints == entry.fingerprints
            assert twin.novel == entry.novel
            assert twin.spec == entry.spec

    def test_corruption_is_a_missing_entry(self, tmp_path):
        root = str(tmp_path / "corpus")
        corpus = Corpus(root)
        s, row = evaluated(spec())
        entry, _ = corpus.consider(s, row)
        path = corpus._path(entry.key)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{torn")
        assert Corpus(root).entries == {}

    @pytest.mark.parametrize(
        "axis, value",
        [("schema", 99), ("quirks", ["tabs-vs-spaces"])],
        ids=["schema-99", "unknown-quirk"],
    )
    def test_an_unloadable_spec_is_a_missing_entry(self, tmp_path, axis, value):
        # Another schema, or a quirk this build does not know, makes the
        # spec loader raise; the corpus skips the entry instead of crashing.
        root = str(tmp_path / "corpus")
        entry, _ = Corpus(root).consider(*evaluated(spec()))
        assert entry.key in Corpus(root).entries
        path = Corpus(root)._path(entry.key)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data["spec"][axis] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert Corpus(root).entries == {}


class TestMutationEngine:
    def engine(self, **overrides):
        base = dict(process_count=6, groups=GROUPS, horizon=12)
        base.update(overrides)
        return MutationEngine(**base)

    def test_random_events_are_admissible(self):
        rng = random.Random(0)
        kinds = set()
        for _ in range(200):
            event = random_event(rng, 6, GROUPS, 12)
            kinds.add(event.kind)
            FaultPlan((event,))  # constructor validates
        # Every kind is reachable — including the ones named mixes
        # never draw (crash_burst) or draw rarely.
        assert "crash_burst" in kinds and "churn" in kinds

    def test_mutants_are_valid_specs(self):
        engine = self.engine()
        rng = random.Random(3)
        parent = spec(faults=random_plan(
            3, "full", process_count=6, groups=GROUPS))
        for _ in range(100):
            child = engine.mutate(parent, rng)
            child.spec_hash()  # a broken spec would raise here
            if child.faults is not None:
                child.faults.plan_hash()

    def test_same_rng_same_child(self):
        engine = self.engine()
        parent = spec(faults=random_plan(
            3, "full", process_count=6, groups=GROUPS))
        a = engine.mutate(parent, random.Random(11))
        b = engine.mutate(parent, random.Random(11))
        assert a == b

    def test_stack_is_bounded(self):
        assert 1 <= MAX_STACK <= 3

    def test_splice_mixes_two_parents(self):
        engine = self.engine()
        left = FaultPlan((random_event(random.Random(1), 6, GROUPS, 12),))
        right = FaultPlan((random_event(random.Random(2), 6, GROUPS, 12),))
        rng = random.Random(5)
        spliced = {
            engine._op_splice(left, rng, right).plan_hash()
            for _ in range(20)
        }
        # Some splice keeps both parents' events.
        union = left.spliced(right, [0], [0])
        assert union.plan_hash() in spliced

    def test_splice_keeps_only_groups_this_base_has(self):
        # A partner from a Figure 1 base scopes a detector event to g4;
        # on a two-group base it would name a group the topology lacks.
        engine = self.engine()
        left = FaultPlan((FaultEvent(kind="gamma_delay", amount=1),))
        right = FaultPlan((
            FaultEvent(kind="omega_late", group="g4", until=9),
            FaultEvent(kind="sigma_noise", group="g2", start=1, until=4),
        ))
        rng = random.Random(5)
        named = {
            e.group
            for _ in range(40)
            for e in engine._op_splice(left, rng, right).events
        }
        assert named == {None, "g2"}

    def test_delay_axis_only_mutates_async_specs(self):
        engine = self.engine(mutate_delay=True)
        round_spec = spec(backend="kernel")
        for trial in range(50):
            child = engine.mutate(round_spec, random.Random(trial))
            assert child.delay_model == round_spec.delay_model

    def test_delay_mutants_are_canonical(self):
        from repro.runtime.delay import canonical_delay_spec

        engine = self.engine(mutate_delay=True)
        parent = spec(
            backend="async", max_rounds=400,
            delay_model=("uniform", 0.1, 0.9),
        )
        seen = set()
        for trial in range(100):
            child = engine.mutate(parent, random.Random(trial))
            if child.delay_model is not None:
                assert child.delay_model == canonical_delay_spec(
                    child.delay_model
                )
                seen.add(child.delay_model[0])
        # The kind switch reaches the slow-pairs search.
        assert "slow_pairs" in seen

    def test_out_of_envelope_delay_keeps_the_parent(self, monkeypatch):
        def refuse(candidate):
            raise SimulationError("out of envelope")

        parent = spec(backend="async", delay_model=("uniform", 0.1, 0.9))
        monkeypatch.setattr("repro.runtime.delay.canonical_delay_spec", refuse)
        engine = self.engine(mutate_delay=True)
        assert engine._mutate_delay(parent, random.Random(0)) is parent

    def test_a_bug_in_the_delay_axis_is_not_swallowed(self, monkeypatch):
        def broken(candidate):
            raise TypeError("not an envelope error")

        parent = spec(backend="async", delay_model=("uniform", 0.1, 0.9))
        monkeypatch.setattr("repro.runtime.delay.canonical_delay_spec", broken)
        engine = self.engine(mutate_delay=True)
        with pytest.raises(TypeError, match="not an envelope error"):
            engine._mutate_delay(parent, random.Random(0))
