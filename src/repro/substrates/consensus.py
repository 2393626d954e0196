"""Leader-driven consensus from ``Omega ∧ Sigma`` (§4, §4.3).

The paper solves consensus in each destination group from
``Sigma_g ∧ Omega_g`` ("construct an obstruction-free consensus and boost
it with Omega" [25]).  This module is the standard message-passing
realization of that recipe — a single-decree, ballot-based protocol à la
Paxos whose quorums are ``Sigma`` samples and whose proposer activity is
gated by ``Omega``:

* only the current ``Omega`` leader runs ballots (the boost: eventually a
  single correct proposer runs unopposed, guaranteeing termination);
* a ballot has a *prepare* phase (learn the highest accepted value from a
  quorum) and an *accept* phase (install the value at a quorum); safety
  follows from quorum intersection, exactly as in Paxos.

The detector handed to each process must provide samples shaped as
``{"omega": leader, "sigma": quorum}`` — see :class:`OmegaSigmaSampler`.

What reaches the buffer is kept to what another process has to read: a
process never mails itself (its own acceptor handles PREPARE / ACCEPT,
and the proposer the reply, inside the sending step), a DECIDE goes from
the decider to every other member and no further, and the instance's
lowest ballot goes straight to its accept phase.  DESIGN.md §16 "What a
slot costs" has the ledger and the safety arguments.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterable, NamedTuple, Optional, Set, Tuple

from repro.detectors.base import FailureDetector
from repro.detectors.leader import OmegaOracle
from repro.detectors.quorum import SigmaOracle
from repro.model.failures import FailurePattern, Time
from repro.model.messages import Datagram
from repro.model.processes import ProcessId, ProcessSet
from repro.sim.kernel import Automaton, Context

#: A ballot number: (round counter, proposer index) — totally ordered.
Ballot = Tuple[int, int]

NO_BALLOT: Ballot = (0, 0)


def check_policy(supersede: str, retransmit_interval: Optional[int]) -> None:
    """Reject an unknown ``supersede`` policy or a non-positive timer."""
    if supersede not in ("abandon", "wait"):
        raise ValueError(
            f"unknown supersede policy {supersede!r}; "
            "expected 'abandon' or 'wait'"
        )
    if retransmit_interval is not None and retransmit_interval < 1:
        raise ValueError(
            f"retransmit_interval must be >= 1 round, "
            f"got {retransmit_interval!r}"
        )


class Membership(NamedTuple):
    """A scope as one of its members addresses it.

    Immutable, so the slots of one replicated-log replica share a single
    instance instead of sorting the scope once per slot.
    """

    #: Every member, sorted — ``members[0]`` owns the lowest ballot.
    members: Tuple[ProcessId, ...]
    #: Every member but the owner: where its PREPARE / ACCEPT / DECIDE go.
    others: Tuple[ProcessId, ...]

    @classmethod
    def of(cls, pid: ProcessId, scope: Iterable[ProcessId]) -> "Membership":
        members = tuple(sorted(scope))
        return cls(members, tuple(p for p in members if p != pid))


class OmegaSigmaSampler(FailureDetector):
    """Bundles ``Omega_P`` and ``Sigma_P`` samples for the consensus code."""

    kind = "OmegaSigma"

    def __init__(self, pattern: FailurePattern, scope: ProcessSet, **kwargs) -> None:
        super().__init__()
        restricted = pattern.restricted_to(scope)
        self.omega = OmegaOracle(restricted, scope, **kwargs)
        self.sigma = SigmaOracle(restricted, scope)
        # Both oracle outputs are pure functions of the crash epoch (plus
        # Omega's stabilization boundary), so the bundled sample dict can
        # be built once per inter-instant interval instead of once per
        # step — the kernel queries it for every process every round.
        self._instants = sorted(
            set(self.sigma._crash_instants)
            | set(self.omega._crash_instants)
            | {self.omega.stabilization_time}
        )
        self._cache: Dict[Tuple[ProcessId, int], Dict[str, Any]] = {}

    def query(self, p: ProcessId, t: Time) -> Dict[str, Any]:
        key = (p, bisect_right(self._instants, t))
        sample = self._cache.get(key)
        if sample is None:
            sample = {
                "omega": self.omega.query(p, t),
                "sigma": self.sigma.query(p, t),
            }
            self._cache[key] = sample
        return sample


class ConsensusAutomaton(Automaton):
    """Per-process code of the leader-driven consensus.

    ``supersede`` selects the proposer's reaction to a PROMISE carrying a
    higher promised ballot mid-prepare: ``"abandon"`` (the default)
    abandons the ballot and retries above the observed round;
    ``"wait"`` replays the pre-fix behaviour — ignore the message and
    keep waiting — which is a known liveness stall under late-Omega
    leader rotation, retained as the ``"supersede-wait"`` scenario quirk
    so the explorer has a real historical bug to rediscover.

    ``retransmit_interval`` arms the proposer's fair-lossy-link timer: a
    leader parked in a phase re-broadcasts that phase's message every
    ``interval`` rounds, so a PREPARE/ACCEPT lost to a drop, a partition
    crossing, or a crashed-then-recovered acceptor is eventually
    re-offered (all phase messages are idempotent at the acceptor).
    ``None`` (the default) never retransmits, so a reliable-link run's
    datagram count is exact — the golden differential suite pins it.

    ``scope`` is the instance's member set, or the :class:`Membership`
    a caller already derived from it for this ``pid``.
    """

    def __init__(
        self,
        pid: ProcessId,
        scope: Iterable[ProcessId],
        supersede: str = "abandon",
        retransmit_interval: Optional[int] = None,
    ) -> None:
        check_policy(supersede, retransmit_interval)
        self.pid = pid
        self.supersede = supersede
        self.retransmit_interval = retransmit_interval
        # A replicated log hands every slot its replica's one Membership.
        self.scope, self._others = (
            scope if isinstance(scope, Membership) else Membership.of(pid, scope)
        )
        self.proposal: Any = None
        self.decision: Any = None
        # Acceptor state.
        self.promised: Ballot = NO_BALLOT
        self.accepted_ballot: Ballot = NO_BALLOT
        self.accepted_value: Any = None
        # Proposer state.
        self._ballot: Ballot = NO_BALLOT
        self._phase: Optional[str] = None
        self._promises: Dict[ProcessId, Tuple[Ballot, Any]] = {}
        self._accepts: Set[ProcessId] = set()
        self._value_in_flight: Any = None
        self._next_forward: int = 0
        self._next_resend: int = 0

    def propose(self, value: Any) -> None:
        """Client call: submit a proposal (before or during the run)."""
        if self.proposal is None:
            self.proposal = value

    def withdraw(self) -> None:
        """Take the proposal back and stop proposing.  The acceptor state
        stays, so a value this proposer got accepted is still there for
        the next ballot's phase 1 to find."""
        self.proposal = None
        self._phase = None

    # -- Durable state (crash–recovery) ----------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The durable state: what survives a crash.

        Acceptor state (``promised`` / ``accepted``) must be durable for
        Paxos safety; the proposal and decision are durable application
        state.  Proposer phase bookkeeping is deliberately *volatile* —
        a recovering proposer restarts its ballot from scratch.
        """
        return {
            "proposal": self.proposal,
            "decision": self.decision,
            "promised": list(self.promised),
            "accepted_ballot": list(self.accepted_ballot),
            "accepted_value": self.accepted_value,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Rejoin from :meth:`snapshot`; volatile proposer state is lost.

        The resumed ballot counter starts at the promised round: the
        automaton's own acceptor handled every PREPARE / ACCEPT this
        proposer ever issued in the step that sent it (:meth:`_announce`)
        and so promised that ballot or a higher one, hence the next
        fresh ballot is strictly above anything it used before the
        crash — ballot uniqueness survives recovery, and the lowest
        ballot's phase-1 exemption is never claimed twice.
        """
        self.proposal = snapshot["proposal"]
        self.decision = snapshot["decision"]
        self.promised = tuple(snapshot["promised"])
        self.accepted_ballot = tuple(snapshot["accepted_ballot"])
        self.accepted_value = snapshot["accepted_value"]
        self._ballot = (self.promised[0], self.pid.index)
        self._phase = None
        self._promises = {}
        self._accepts = set()
        self._value_in_flight = None
        self._next_forward = 0
        self._next_resend = 0

    # -- Steps -----------------------------------------------------------------

    def on_step(self, ctx: Context, datagram: Optional[Datagram]) -> None:
        if datagram is not None:
            self._handle(ctx, datagram.src, datagram.tag, datagram.body)
        self._progress(ctx)

    def _handle(
        self, ctx: Context, src: ProcessId, tag: str, body: Tuple[Any, ...]
    ) -> None:
        if tag == "PREPARE":
            (ballot,) = body
            if ballot > self.promised:
                self.promised = ballot
            self._send(
                ctx,
                src,
                "PROMISE",
                ballot,
                self.promised,
                self.accepted_ballot,
                self.accepted_value,
            )
        elif tag == "PROMISE":
            ballot, promised, acc_ballot, acc_value = body
            if ballot == self._ballot and self._phase == "prepare":
                if promised <= ballot:
                    self._promises[src] = (acc_ballot, acc_value)
                elif self.supersede == "abandon":
                    # Superseded mid-prepare: the acceptor has promised a
                    # higher ballot, so this quorum can never complete.
                    # Abandon the ballot and retry above the highest
                    # round observed — without this, a demoted-then-
                    # re-elected leader (an unstable Omega prefix) waits
                    # forever on promises that cannot arrive.  The
                    # ``"wait"`` policy does exactly that waiting: it is
                    # the retained pre-fix stall (see class docstring).
                    self._ballot = (
                        max(self._ballot[0], promised[0]),
                        self.pid.index,
                    )
                    self._phase = None
        elif tag == "ACCEPT":
            ballot, value = body
            if ballot >= self.promised:
                self.promised = ballot
                self.accepted_ballot = ballot
                self.accepted_value = value
                self._send(ctx, src, "ACCEPTED", ballot)
            else:
                self._send(ctx, src, "NACK", ballot)
        elif tag == "ACCEPTED":
            (ballot,) = body
            if ballot == self._ballot and self._phase == "accept":
                self._accepts.add(src)
        elif tag == "NACK":
            (ballot,) = body
            if ballot == self._ballot:
                self._phase = None  # retry with a higher ballot later
        elif tag == "FORWARD":
            # A non-leader relays its proposal: the leader adopts it when
            # it has none of its own (validity is preserved — the value
            # was proposed by some process).
            (value,) = body
            if self.proposal is None:
                self.proposal = value
        elif tag == "DECIDE":
            (value,) = body
            if self.decision is None:
                # Learned, not relayed: the decider addressed every
                # member itself, and a member it died before reaching
                # asks the next ``Omega`` leader (the log's CATCHUP).
                self.decision = value
                ctx.output(("decide", value))

    def _progress(self, ctx: Context) -> None:
        sample = ctx.detector or {}
        leader = sample.get("omega")
        quorum = sample.get("sigma", ())
        if self.decision is not None or self.proposal is None:
            return
        if leader != self.pid:
            self._phase = None  # demoted: stop running ballots
            # Relay the proposal to the leader, throttled so the relay
            # traffic cannot starve the leader's inbox.
            if leader is not None and ctx.time >= self._next_forward:
                self._next_forward = ctx.time + 8
                ctx.send(leader, "FORWARD", self.proposal)
            return
        if self._phase is None:
            # Start a fresh, higher ballot.
            self._ballot = (self._ballot[0] + 1, self.pid.index)
            if self._ballot == (1, self.scope[0].index):
                # The instance's lowest ballot: rounds start at 1 and no
                # member sorts below ``scope[0]``, so no acceptor can
                # have accepted anything under it and phase 1 has
                # nothing to learn.  Formed at most once (see
                # :meth:`restore`); a NACK falls back to round 2 and a
                # full phase 1.
                self._start_accept(ctx, self.proposal)
            else:
                self._phase = "prepare"
                self._promises = {}
                self._arm_resend(ctx)
                self._announce(ctx, "PREPARE", self._ballot)
        elif self._phase == "prepare" and all(
            q in self._promises for q in quorum
        ):
            # Adopt the value of the highest accepted ballot, if any.
            best: Tuple[Ballot, Any] = (NO_BALLOT, None)
            for acc in self._promises.values():
                if acc[0] > best[0]:
                    best = acc
            self._start_accept(
                ctx, best[1] if best[0] > NO_BALLOT else self.proposal
            )
        elif self._phase == "accept" and all(
            q in self._accepts for q in quorum
        ):
            if self.decision is None:
                self.decision = self._value_in_flight
                ctx.output(("decide", self._value_in_flight))
            ctx.broadcast(self._others, "DECIDE", self._value_in_flight)
            self._phase = "done"
        elif (
            self.retransmit_interval is not None
            and ctx.time >= self._next_resend
        ):
            # Fair-lossy-link timer: the quorum is incomplete and the
            # phase message may have been dropped (flaky link, partition
            # crossing, acceptor down between crash and rejoin) — repeat
            # it.  Acceptors treat PREPARE/ACCEPT idempotently, so a
            # duplicate can only re-elicit the lost reply.
            self._arm_resend(ctx)
            if self._phase == "prepare":
                self._announce(ctx, "PREPARE", self._ballot)
            elif self._phase == "accept":
                self._announce(
                    ctx, "ACCEPT", self._ballot, self._value_in_flight
                )

    def awaits_mail(self, sample: Dict[str, Any]) -> bool:
        """Whether :meth:`_progress` under ``sample`` changes nothing.

        So for an instance that is decided or has nothing to propose,
        and for a leader mid-ballot whose quorum is incomplete under
        ``sample["sigma"]`` with no retransmission timer running: only a
        datagram, or another sample, moves it.  A demoted proposer and
        an armed timer act on the clock, and a complete quorum or a
        ballot yet to open acts on the next step.
        """
        if self.decision is not None or self.proposal is None:
            return True
        if sample.get("omega") != self.pid or self.retransmit_interval is not None:
            return False
        if self._phase == "prepare":
            replied = self._promises
        elif self._phase == "accept":
            replied = self._accepts
        else:
            return False
        return not all(q in replied for q in sample.get("sigma", ()))

    def _start_accept(self, ctx: Context, value: Any) -> None:
        self._value_in_flight = value
        self._phase = "accept"
        self._accepts = set()
        self._arm_resend(ctx)
        self._announce(ctx, "ACCEPT", self._ballot, value)

    def _arm_resend(self, ctx: Context) -> None:
        if self.retransmit_interval is not None:
            self._next_resend = ctx.time + self.retransmit_interval

    # A process never mails itself: what it addresses to itself it handles
    # within the sending step — local computation inside one Appendix-A
    # step, through the same ``_handle`` a datagram would have reached.

    def _send(self, ctx: Context, dst: ProcessId, tag: str, *body: Any) -> None:
        if dst == self.pid:
            self._handle(ctx, dst, tag, body)
        else:
            ctx.send(dst, tag, *body)

    def _announce(self, ctx: Context, tag: str, *body: Any) -> None:
        """PREPARE / ACCEPT to the whole scope, this process included."""
        ctx.broadcast(self._others, tag, *body)
        self._handle(ctx, self.pid, tag, body)


class ConsensusCluster:
    """Convenience wrapper: one consensus instance over a process set.

    Builds the automata and the ``Omega ∧ Sigma`` samplers, exposes
    ``propose`` / ``decided`` and runs on a caller-provided kernel.
    """

    def __init__(
        self,
        pattern: FailurePattern,
        scope: ProcessSet,
        omega_stabilization: Optional[Time] = None,
    ) -> None:
        self.scope = scope
        self.automata: Dict[ProcessId, ConsensusAutomaton] = {
            p: ConsensusAutomaton(p, scope) for p in sorted(scope)
        }
        kwargs = {}
        if omega_stabilization is not None:
            kwargs["stabilization_time"] = omega_stabilization
        self.detectors: Dict[ProcessId, OmegaSigmaSampler] = {
            p: OmegaSigmaSampler(pattern, scope, **kwargs)
            for p in sorted(scope)
        }

    def propose(self, p: ProcessId, value: Any) -> None:
        self.automata[p].propose(value)

    def decision_at(self, p: ProcessId) -> Any:
        return self.automata[p].decision

    def decided_everywhere(self, alive: ProcessSet) -> bool:
        return all(
            self.automata[p].decision is not None for p in alive
        )
