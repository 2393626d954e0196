"""Tests for consensus and adopt-commit sequential objects."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.errors import SpecificationError
from repro.objects.consensus import AdoptCommitObject, ConsensusObject


class TestConsensusObject:
    def test_first_proposal_wins(self):
        cons = ConsensusObject()
        assert cons.propose(41) == 41
        assert cons.propose(7) == 41
        assert cons.decision == 41

    def test_agreement_across_many_proposals(self):
        cons = ConsensusObject()
        outcomes = {cons.propose(v) for v in range(10)}
        assert outcomes == {0}

    def test_decision_before_any_proposal_raises(self):
        cons = ConsensusObject()
        assert not cons.decided
        with pytest.raises(SpecificationError):
            _ = cons.decision

    def test_proposal_count(self):
        cons = ConsensusObject()
        cons.propose(1)
        cons.propose(2)
        assert cons.proposal_count == 2

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=20))
    def test_validity_and_agreement(self, values):
        cons = ConsensusObject()
        decisions = [cons.propose(v) for v in values]
        assert len(set(decisions)) == 1
        assert decisions[0] in values


class TestAdoptCommit:
    def test_solo_proposal_commits(self):
        ac = AdoptCommitObject()
        outcome = ac.propose("x")
        assert outcome.committed
        assert outcome.value == "x"

    def test_unanimous_proposals_all_commit(self):
        ac = AdoptCommitObject()
        outcomes = [ac.propose("x") for _ in range(4)]
        assert all(o.committed for o in outcomes)

    def test_conflicting_value_adopts_first(self):
        ac = AdoptCommitObject()
        ac.propose("x")
        outcome = ac.propose("y")
        assert not outcome.committed
        assert outcome.value == "x"

    def test_commit_implies_every_outcome_carries_the_value(self):
        """The adopt-commit safety contract."""
        ac = AdoptCommitObject()
        first = ac.propose("v")
        later = [ac.propose(w) for w in ("v", "w", "v")]
        assert first.committed
        for outcome in later:
            assert outcome.value == "v"

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=15))
    def test_all_outcomes_carry_the_first_value(self, values):
        ac = AdoptCommitObject()
        outcomes = [ac.propose(v) for v in values]
        assert all(o.value == values[0] for o in outcomes)
        if len(set(values)) == 1:
            assert all(o.committed for o in outcomes)
