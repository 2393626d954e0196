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
the shipped class.

Until PR 23 every learner relayed the DECIDE it learned to everyone but
its sender, a replica whose head slot was open stepped every round, and
nobody proposed in a slot whose proposer had died:
:class:`RelayingConsensus` and :class:`OrphaningLog` are those.

Each layer is a mix-in its context manager puts on top of whatever the
modules hold, so they nest — oldest habit innermost: ``relaying()`` alone
is PR 23's parent, ``relaying(), single_value_slots()`` PR 21's, and
``relaying(), single_value_slots(), flooding()`` PR 20's.

``tests/substrates/test_slot_cost.py`` checks they are faithful: the 20
``kernel:replog3:*`` goldens and the kernel row pins recorded before
each PR reproduce byte for byte.

Before the superseded-ballot fix, a proposer superseded mid-prepare — a
PROMISE naming a promised ballot above its own — ignored the reply and
kept waiting for a quorum that could never complete: a liveness stall once an unstable
``Omega`` prefix demotes and re-elects a leader (``omega_late``).
:func:`supersede_wait_everywhere` puts that proposer back, as the
planted defect of the kill ledger (``benchmarks/bench_explore.py``), the
rediscovery test (``tests/campaign/test_triage.py``) and the stall
backstops.  A patch is not part of any ``spec_hash``: a patched run
reads and writes no shared cache.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.substrates import consensus, replicated_log


@contextmanager
def _layer(mixin, name, *modules):
    """Inside the block, ``name`` in ``modules`` is ``mixin`` over what
    it was."""
    base = getattr(modules[0], name)
    layered = type(mixin.__name__, (mixin, base), {})
    for module in modules:
        setattr(module, name, layered)
    try:
        yield
    finally:
        for module in modules:
            setattr(module, name, base)


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


class FloodingConsensus:
    """The consensus automaton with the pre-PR-20 wire behaviour."""

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


def supersede_wait_everywhere(monkeypatch):
    """Until the test ends (pytest fixture ``monkeypatch``), every
    consensus instance drops a PROMISE whose promised ballot is above
    the ballot it answers — the one reply the shipped proposer abandons
    its ballot on."""
    handle = consensus.ConsensusAutomaton._handle

    def waiting(self, ctx, src, tag, body):
        if tag == "PROMISE" and body[1] > body[0]:
            return
        handle(self, ctx, src, tag, body)

    monkeypatch.setattr(consensus.ConsensusAutomaton, "_handle", waiting)


def flooding():
    """Inside the block, every consensus instance built is the oracle."""
    return _layer(FloodingConsensus, "ConsensusAutomaton", consensus, replicated_log)


class RelayingConsensus:
    """The learner until PR 23: what it learns it tells everyone else."""

    def _handle(self, ctx, src, tag, body):
        learns = tag == "DECIDE" and self.decision is None
        super()._handle(ctx, src, tag, body)
        if learns:
            # Folklore relay, onward only: ``src`` has decided by
            # construction, and every other member still gets a copy
            # from every decider — so a decision one correct process
            # learns reaches all of them even if the decider crashed
            # mid-broadcast.
            ctx.broadcast([p for p in self._others if p != src], "DECIDE", body[0])


class OrphaningLog:
    """The replica until PR 23: it steps every round while its head slot
    is open, and a slot whose proposer died stays open for good."""

    def idle(self):
        """Nothing pending and no slot open at the apply head."""
        return (
            not self._catchup_needed
            and not self._pending
            and self._slots.get(self._next_slot) is None
        )

    def on_step(self, ctx, datagram):
        self._sample = {}  # no last output, so ``Omega`` never moved
        super().on_step(ctx, datagram)

    def _take_over(self):
        return self._slots.get(self._next_slot)


@contextmanager
def relaying():
    """Inside the block, every consensus instance and every log replica
    built is PR 23's parent."""
    with _layer(RelayingConsensus, "ConsensusAutomaton", consensus, replicated_log):
        with _layer(OrphaningLog, "ReplicatedLogAutomaton", replicated_log):
            yield


class SingleValueSlots:
    """The log until PR 21: a slot decides one bare value — the head of
    the queue — a FORWARD is its slot's (adopted only by a slot that has
    no proposal yet), and a value decided twice is applied twice."""

    def on_step(self, ctx, datagram):
        slot_ctx = self._slot_ctx
        slot_ctx._ctx, slot_ctx.time, slot_ctx.detector = ctx, ctx.time, ctx.detector
        if self._catchup_needed:
            self._catchup_needed = False
            if self._membership.others:
                ctx.broadcast(self._membership.others, "CATCHUP", self._next_slot)
        if datagram is not None and datagram.tag == "CATCHUP":
            for slot in range(datagram.body[0], self._next_slot):
                ctx.send(datagram.src, "DECIDE", slot, self.applied[slot])
        elif datagram is not None:
            slot_ctx._slot = datagram.body[0]
            self._slot(datagram.body[0])._handle(
                slot_ctx, datagram.src, datagram.tag, datagram.body[1:]
            )
        head = self._slots.get(self._next_slot)
        if self._pending:
            head = self._slot(self._next_slot)
            head.propose(self._pending[0])
        if head is not None and head.decision is None:
            slot_ctx._slot = self._next_slot
            head._progress(slot_ctx)
        while (head := self._slots.get(self._next_slot)) and head.decision is not None:
            self.applied.append(head.decision)
            ctx.output(("applied", self._next_slot, head.decision))
            if head.decision in self._pending:
                self._pending.remove(head.decision)
            self._next_slot += 1


def single_value_slots():
    """Inside the block, every replicated-log replica built is the oracle."""
    return _layer(SingleValueSlots, "ReplicatedLogAutomaton", replicated_log)
