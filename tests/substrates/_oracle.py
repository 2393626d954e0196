"""The retired message pattern of the §4.3 consensus, as a test oracle.

Until PR 20 a ballot cost 45 datagrams on a 5-member scope: every
process mailed itself its own PREPARE / ACCEPT and the replies to them,
every decider re-broadcast DECIDE to the whole scope (itself and the
sender included), and every ballot — the instance's lowest too — ran
phase 1.  :class:`FloodingConsensus` puts those three habits back on top
of the shipped automaton (same ``_handle`` / ``_progress`` bodies), so a
test can run "the parent's protocol" next to the current one: the
counted ledger (45 vs 24), and liveness wherever the parent had it.

``tests/substrates/test_slot_cost.py`` checks the oracle is faithful:
under it, two kernel row pins recorded before PR 20 reproduce byte for
byte.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.substrates import consensus, replicated_log
from repro.substrates.consensus import ConsensusAutomaton


class _FloodingContext:
    """A context view whose DECIDE broadcasts reach the whole scope."""

    def __init__(self, ctx, scope):
        self._ctx = ctx
        self._scope = scope
        self.pid = ctx.pid
        self.time = ctx.time
        self.detector = ctx.detector
        self.send = ctx.send
        self.output = ctx.output

    def broadcast(self, dsts, tag, *body):
        self._ctx.broadcast(self._scope if tag == "DECIDE" else dsts, tag, *body)


class FloodingConsensus(ConsensusAutomaton):
    """:class:`ConsensusAutomaton` with the pre-PR-20 wire behaviour."""

    def _handle(self, ctx, src, tag, body):
        super()._handle(_FloodingContext(ctx, self.scope), src, tag, body)

    def _progress(self, ctx):
        super()._progress(_FloodingContext(ctx, self.scope))

    def _send(self, ctx, dst, tag, *body):
        ctx.send(dst, tag, *body)  # self-addressed mail included

    def _announce(self, ctx, tag, *body):
        ctx.broadcast(self.scope, tag, *body)

    def _start_accept(self, ctx, value):
        if self._phase is None:
            # The lowest ballot, about to skip phase 1: prepare it instead.
            self._phase = "prepare"
            self._promises = {}
            self._arm_resend(ctx)
            self._announce(ctx, "PREPARE", self._ballot)
        else:
            super()._start_accept(ctx, value)


@contextmanager
def flooding():
    """Inside the block, every consensus instance built is the oracle."""
    modules = (consensus, replicated_log)
    for module in modules:
        module.ConsensusAutomaton = FloodingConsensus
    try:
        yield
    finally:
        for module in modules:
            module.ConsensusAutomaton = ConsensusAutomaton
