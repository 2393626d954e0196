"""Tests for the consensus object's sequential specification."""

from hypothesis import given, settings, strategies as st

from ._objects import P, new_consensus


class TestConsensusObject:
    def test_first_proposal_wins(self):
        cons = new_consensus()
        assert cons.propose(P, 41) == 41
        assert cons.propose(P, 7) == 41
        assert cons.decided and cons._decision == 41

    def test_agreement_across_many_proposals(self):
        cons = new_consensus()
        outcomes = {cons.propose(P, v) for v in range(10)}
        assert outcomes == {0}

    def test_no_decision_before_any_proposal(self):
        cons = new_consensus()
        assert not cons.decided and cons.proposal_count == 0

    def test_proposal_count(self):
        cons = new_consensus()
        cons.propose(P, 1)
        cons.propose(P, 2)
        assert cons.proposal_count == 2

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=20))
    def test_validity_and_agreement(self, values):
        cons = new_consensus()
        decisions = [cons.propose(P, v) for v in values]
        assert len(set(decisions)) == 1
        assert decisions[0] in values
