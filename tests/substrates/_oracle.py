"""The retired patterns of the §4.3 substrates, as test oracles.

Until PR 20 a ballot cost 45 datagrams on a 5-member scope: every
process mailed itself its own PREPARE / ACCEPT and the replies to them,
every decider re-broadcast DECIDE to the whole scope (itself and the
sender included), and every ballot — the instance's lowest too — ran
phase 1.  :class:`FloodingConsensus` puts those three habits back on top
of the shipped automaton (same ``_handle`` / ``_progress`` bodies), so a
test can run "the parent's protocol" next to the current one: the
counted ledger (45 vs 24), and liveness wherever the parent had it.

Until PR 21 a log slot decided one value and a forwarded value raced
for its sender's slot; :class:`SingleValueSlots` is that replica body on
the shipped class.  The two compose: ``single_value_slots()`` alone is
PR 21's parent, with ``flooding()`` it is PR 20's.

``tests/substrates/test_slot_cost.py`` checks both are faithful: the 20
``kernel:replog3:*`` goldens and the kernel row pins recorded before
each PR reproduce byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.substrates import consensus, replicated_log
from repro.substrates.consensus import ConsensusAutomaton
from repro.substrates.replicated_log import ReplicatedLogAutomaton


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


class SingleValueSlots(ReplicatedLogAutomaton):
    """The log until PR 21: a slot decides one bare value — the head of
    the queue — a FORWARD is its slot's (adopted only by a slot that has
    no proposal yet), and a value decided twice is applied twice."""

    def on_step(self, ctx, datagram):
        slot_ctx = self._slot_ctx
        if self._catchup_needed:
            self._catchup_needed = False
            if self._membership.others:
                ctx.broadcast(self._membership.others, "CATCHUP", self._next_slot)
        if datagram is not None and datagram.tag == "CATCHUP":
            for slot in range(datagram.body[0], self._next_slot):
                ctx.send(datagram.src, "DECIDE", slot, self.applied[slot])
        elif datagram is not None:
            slot_ctx.bind(ctx, datagram.body[0])
            self._slot(datagram.body[0])._handle(
                slot_ctx, datagram.src, datagram.tag, datagram.body[1:]
            )
        head = self._slots.get(self._next_slot)
        if self._pending:
            head = self._slot(self._next_slot)
            head.propose(self._pending[0])
        if head is not None and head.decision is None:
            slot_ctx.bind(ctx, self._next_slot)
            head._progress(slot_ctx)
        while (head := self._slots.get(self._next_slot)) and head.decision is not None:
            self.applied.append(head.decision)
            ctx.output(("applied", self._next_slot, head.decision))
            if head.decision in self._pending:
                self._pending.remove(head.decision)
            self._next_slot += 1


@contextmanager
def single_value_slots():
    """Inside the block, every replicated-log replica built is the oracle."""
    replicated_log.ReplicatedLogAutomaton = SingleValueSlots
    try:
        yield
    finally:
        replicated_log.ReplicatedLogAutomaton = ReplicatedLogAutomaton
