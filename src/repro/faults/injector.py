"""The nemesis runtime: one :class:`FaultInjector` per faulted run.

A :class:`repro.faults.plan.FaultPlan` is pure data; the injector is its
executable form, bound to one run.  The execution hosts each consult the
slice of the injector they understand:

* :class:`repro.runtime.scheduler.Scheduler` asks :meth:`FaultInjector.suppresses`
  before scheduling an actor (participation churn);
* :class:`repro.model.messages.MessageBuffer` routes every ``send``
  through :meth:`FaultInjector.on_send` (delay / duplicate / drop with
  retransmit) and every ``receive`` through
  :meth:`FaultInjector.pick_receive` (bounded reordering);
* the detectors the hosts sample are the run's ``mu`` components, and
  :meth:`FaultInjector.perturb_mu` maps them the way
  :meth:`FaultInjector.perturb_pattern` maps the failure pattern: each
  detector event kind yields one component built once as a history
  (:class:`NoisySigma`, :class:`LateOmega`, a re-lagged ``gamma``),
  its epochs decided by the window predicates
  :meth:`FaultInjector.sigma_noisy` / :meth:`FaultInjector.omega_unstable`.

Three invariants keep faulted runs honest:

* **No plan, no change** — hosts take ``injector=None`` and guard every
  new branch on it, so a plan-free run is byte-identical to the
  pre-nemesis engine (pinned by the runtime golden suite).
* **Own RNG** — all injector randomness flows through a private
  :class:`random.Random` seeded from ``(plan hash, run seed)``, never
  the host's schedule RNG; a faulted run is therefore byte-replayable
  and the schedule of the *unperturbed* actions is unchanged.
* **Audited admissibility** — :meth:`FaultInjector.audit` re-checks,
  after the run, that the dynamic behaviour stayed inside the model:
  bounded duplication, every drop retransmitted, every delayed datagram
  released by the horizon, crash monotonicity preserved.  An injector
  can be wrong, but never silently.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.detectors.base import Timeline, epoch_starts
from repro.detectors.cyclicity import GammaOracle
from repro.detectors.mu import Mu
from repro.model.errors import ModelError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessSet
from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError


class AdmissibilityError(ModelError):
    """A fault plan violated the model's admissibility conditions."""


def derive_injector_seed(plan: FaultPlan, seed: int) -> int:
    """The injector RNG seed: a pure function of (plan, run seed)."""
    blob = f"{plan.plan_hash()}:{seed}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class SendVerdict:
    """What the injector decided about one datagram send.

    Attributes:
        delay: rounds before the datagram becomes receivable.
        copies: extra duplicates to mint (each delayed like the original).
        dropped: the original send is lost; ``retransmit_at`` names the
            absolute time at which the link's retransmission becomes
            receivable (never None when ``dropped`` — fair-lossy links
            always retransmit).
    """

    __slots__ = ("delay", "copies", "dropped", "retransmit_at")

    def __init__(
        self,
        delay: int = 0,
        copies: int = 0,
        dropped: bool = False,
        retransmit_at: Optional[Time] = None,
    ) -> None:
        self.delay = delay
        self.copies = copies
        self.dropped = dropped
        self.retransmit_at = retransmit_at


#: The verdict of an unfaulted send — shared, immutable by convention.
BENIGN_SEND = SendVerdict()

#: The kinds :meth:`FaultInjector.on_send` consults, and the kind
#: :meth:`FaultInjector.suppresses` consults: their windows fix
#: :attr:`FaultInjector.links_quiet_from` / ``churn_quiet_from``.
SEND_KINDS = ("link_delay", "link_dup", "link_drop", "partition", "link_flaky")
CHURN_KINDS = ("churn",)


class FaultInjector:
    """One plan bound to one run: the hosts' shared nemesis.

    Args:
        plan: the perturbations to realize.
        group_members: group name -> member *indices* (the scoping map
            for detector events); pass
            :func:`group_index_map` of the run's topology.
        seed: the run's scheduling seed; the injector derives its own
            RNG from ``(plan hash, seed)`` so fault randomness never
            touches the host's schedule RNG stream.
    """

    def __init__(
        self,
        plan: FaultPlan,
        group_members: Optional[Dict[str, FrozenSet[int]]] = None,
        seed: int = 0,
    ) -> None:
        self.plan = plan
        self.groups: Dict[str, FrozenSet[int]] = dict(group_members or {})
        self.rng = random.Random(derive_injector_seed(plan, seed))
        self.horizon: Time = plan.horizon()
        #: What actually happened, for rows / audits / diagnostics.
        self.stats: Dict[str, int] = {
            "delayed": 0,
            "duplicated": 0,
            "dropped": 0,
            "retransmitted": 0,
            "reordered": 0,
            "suppressed": 0,
            "sigma_noised": 0,
            "omega_rotated": 0,
            "partitioned": 0,
            "flaky_dropped": 0,
            "flaky_retransmitted": 0,
            "recovered": 0,
        }
        self._reorders = plan.by_kind("link_reorder")
        self._dups = plan.by_kind("link_dup")
        self._drops = plan.by_kind("link_drop")
        self._recovers = plan.by_kind("crash_recover")
        self._dup_budget: Dict[FaultEvent, int] = {
            e: e.amount for e in self._dups
        }
        self._drop_budget: Dict[FaultEvent, int] = {
            e: e.amount for e in self._drops
        }
        self._sigma_noise = plan.by_kind("sigma_noise")
        self._omega_late = plan.by_kind("omega_late")
        self._gamma = plan.by_kind("gamma_delay")
        self._bursts = plan.by_kind("crash_burst")
        self._churn = plan.by_kind(*CHURN_KINDS)
        self._base_pattern: Optional[FailurePattern] = None
        #: The link windows compiled: the sorted window edges of the
        #: events :meth:`on_send` consults, and per epoch they cut
        #: (:func:`epoch_starts`) its partitions, flaky links, delays,
        #: drops and duplications active there, each in plan order — an
        #: event is active over a whole epoch or over none of it.
        self._send_edges: Tuple[Time, ...] = tuple(
            sorted({t for e in plan.by_kind(*SEND_KINDS) for t in (e.start, e.until)})
        )
        consulted = (
            plan.by_kind("partition"),
            plan.by_kind("link_flaky"),
            plan.by_kind("link_delay"),
            self._drops,
            self._dups,
        )
        self._send_windows = [
            [[e for e in events if e.active(start)] for events in consulted]
            for start in epoch_starts(self._send_edges)
        ]
        #: The time :meth:`on_send` last judged a send at, and the
        #: windows of its epoch: the sends of one round share one lookup.
        self._send_t: Time = -1
        self._send_now: List[List[FaultEvent]] = self._send_windows[0]
        #: From this time on no event :meth:`on_send` consults is active,
        #: so it answers :data:`BENIGN_SEND` and moves neither ``rng`` nor
        #: ``stats``; hosts skip the hook from here (0 without such events).
        self.links_quiet_from: Time = max(
            (e.until for e in plan.by_kind(*SEND_KINDS)), default=0
        )
        #: From this time on :meth:`suppresses` answers False without
        #: counting, so hosts skip it (0 without ``churn`` events).
        self.churn_quiet_from: Time = max(
            (e.until for e in self._churn), default=0
        )

    # -- Failure pattern (crash bursts) -----------------------------------

    def perturb_pattern(self, pattern: FailurePattern) -> FailurePattern:
        """Apply the plan's crash bursts and crash–recovery events.

        Bursts are monotone by construction
        (:meth:`FailurePattern.with_crash` keeps the earliest crash
        time); the audit re-checks that no crash moved later.  A
        ``crash_recover`` crashes its victim at ``start`` and rejoins
        it at ``until`` — but *never* resurrects a process the base
        pattern crashes on its own (base crashes are facts of the
        environment, not of the plan), so crash monotonicity of the
        base pattern is preserved by construction.
        """
        self._base_pattern = pattern
        perturbed = pattern
        for event in self._bursts:
            for offset, index in enumerate(sorted(event.targets)):
                for p in pattern.processes:
                    if p.index == index:
                        perturbed = perturbed.with_crash(
                            p, event.start + offset * event.amount
                        )
                        break
                else:
                    raise AdmissibilityError(
                        f"crash_burst targets unknown process index {index}"
                    )
        for event in self._recovers:
            index = event.targets[0]
            for p in pattern.processes:
                if p.index == index:
                    if p in pattern.crash_times:
                        # The environment already crashes this process;
                        # the plan may not un-crash it.
                        break
                    perturbed = perturbed.with_crash(
                        p, event.start
                    ).with_recovery(p, event.until)
                    self.stats["recovered"] += 1
                    break
            else:
                raise AdmissibilityError(
                    f"crash_recover targets unknown process index {index}"
                )
        return perturbed

    # -- Scheduler hook (participation churn) -----------------------------

    def suppresses(self, key: Any, t: Time) -> bool:
        """Whether actor ``key`` must take no step at time ``t``.

        Keys without a process index (whole-system actors) are never
        suppressed — churn is a per-process notion.
        """
        index = getattr(key, "index", None)
        if index is None:
            return False
        for event in self._churn:
            if index in event.targets and event.active(t):
                self.stats["suppressed"] += 1
                return True
        return False

    # -- Message-buffer hooks (link faults) -------------------------------

    def on_send(self, src_index: int, dst_index: int, t: Time) -> SendVerdict:
        """Judge one datagram send on the ``src -> dst`` link at ``t``."""
        if t >= self.links_quiet_from:
            return BENIGN_SEND
        if t != self._send_t:
            self._send_t = t
            self._send_now = self._send_windows[bisect_right(self._send_edges, t)]
        partitions, flaky, delays, drops, dups = self._send_now
        for event in partitions:
            if event.cuts(src_index, dst_index):
                self.stats["partitioned"] += 1
                # The cut heals at ``until``: every crossing datagram
                # is retransmitted then (fair lossy by construction —
                # no budget, no randomness).
                return SendVerdict(
                    dropped=True, retransmit_at=max(event.until, t + 1)
                )
        for event in flaky:
            if event.matches_link(src_index, dst_index) and self.rng.random() < 0.5:
                self.stats["flaky_dropped"] += 1
                self.stats["flaky_retransmitted"] += 1
                jitter = (
                    self.rng.randrange(event.amount) if event.amount else 0
                )
                # Unconditional per-datagram retransmission shortly
                # after the drop — flaky links lose sends, never
                # messages.
                return SendVerdict(dropped=True, retransmit_at=t + 1 + jitter)
        delay = 0
        for event in delays:
            if event.matches_link(src_index, dst_index):
                delay = max(delay, event.amount)
        for event in drops:
            if (
                event.matches_link(src_index, dst_index)
                and self._drop_budget[event] > 0
                and self.rng.random() < 0.5
            ):
                self._drop_budget[event] -= 1
                self.stats["dropped"] += 1
                self.stats["retransmitted"] += 1
                # Fair-lossy: the retransmission is unconditional and
                # lands when the lossy window closes (plus transit).
                return SendVerdict(
                    dropped=True, retransmit_at=max(event.until, t + 1)
                )
        copies = 0
        for event in dups:
            if (
                event.matches_link(src_index, dst_index)
                and self._dup_budget[event] > 0
                and self.rng.random() < 0.5
            ):
                self._dup_budget[event] -= 1
                self.stats["duplicated"] += 1
                copies += 1
        if delay:
            self.stats["delayed"] += 1 + copies
        if delay == 0 and copies == 0:
            return BENIGN_SEND
        return SendVerdict(delay=delay, copies=copies)

    def link_clear(self, src_index: int, dst_index: int, t: Time) -> bool:
        """Whether a (re)transmission attempt at ``t`` faces a clear
        channel.

        Side-effect-free and RNG-free — the async driver's retry ladder
        probes this to decide which backoff attempts could land: inside
        an active partition cut, a flaky window, or a budgeted lossy
        window the attempt is presumed lost (the pessimistic answer is
        always admissible; it only delays delivery to the fair-lossy
        backstop).
        """
        partitions, flaky, _, drops, _ = self._send_windows[
            bisect_right(self._send_edges, t)
        ]
        for event in partitions:
            if event.cuts(src_index, dst_index):
                return False
        for event in flaky:
            if event.matches_link(src_index, dst_index):
                return False
        for event in drops:
            if (
                event.matches_link(src_index, dst_index)
                and self._drop_budget[event] > 0
            ):
                return False
        return True

    def pick_receive(self, dst_index: int, ready: int, t: Time) -> int:
        """Index (into the FIFO queue) of the datagram to extract.

        Bounded adversarial reordering: during an active
        ``link_reorder`` window the receiver gets a random datagram
        among the first ``amount`` receivable ones; outside any window
        (or with a single candidate) extraction is FIFO.
        """
        if ready <= 1:
            return 0
        for event in self._reorders:
            if event.active(t) and (
                event.dst is None or event.dst == dst_index
            ):
                pick = self.rng.randrange(min(event.amount, ready))
                if pick:
                    self.stats["reordered"] += 1
                return pick
        return 0

    # -- Detector (the run's mu) -----------------------------------------

    def perturb_mu(self, mu: Mu) -> Mu:
        """``mu`` under the plan's detector events — the detector twin of
        :meth:`perturb_pattern`.  Each perturbed component is a history
        built once, here: a :class:`NoisySigma` for every ``Sigma`` a
        ``sigma_noise`` event covers, a :class:`LateOmega` for every
        ``Omega_g`` an ``omega_late`` event covers, and ``gamma`` rebuilt
        with the ``gamma_delay`` lags added.  ``sigma_noised`` /
        ``omega_rotated`` count the rounds the fault decided, per scope.
        An event naming a group the topology lacks raises
        :class:`FaultPlanError`."""
        if not (self._sigma_noise or self._omega_late or self._gamma):
            return mu
        gamma = mu.gamma
        if self._gamma:
            lag = gamma.detection_lag + sum(e.amount for e in self._gamma)
            gamma = GammaOracle(gamma.pattern, gamma.topology, detection_lag=lag)
        sigmas = dict(mu.sigmas)
        edges = [t for e in self._sigma_noise for t in (e.start, e.until)]
        for scope, sigma in mu.sigmas.items():
            if self._covers(self._sigma_noise, scope):
                pinned = partial(self.sigma_noisy, _indices(scope))
                sigmas[scope] = noisy = NoisySigma(sigma, edges, pinned)
                self.stats["sigma_noised"] += noisy.noised
        omegas = dict(mu.omegas)
        for g, omega in mu.omegas.items():
            if self._covers(self._omega_late, g.members):
                unstable = partial(self.omega_unstable, _indices(g.members))
                omegas[g] = late = LateOmega(omega, unstable)
                self.stats["omega_rotated"] += late.rotated
        return Mu(mu.topology, sigmas, omegas, gamma)

    def _covers(self, events: Tuple[FaultEvent, ...], scope: ProcessSet) -> bool:
        """Whether one of ``events`` covers ``scope`` (each is resolved)."""
        indices = _indices(scope)
        return any([self._scopes(event, indices) for event in events])

    def _scopes(self, event: FaultEvent, scope_indices: FrozenSet[int]) -> bool:
        if event.group is None:
            return True
        members = self.groups.get(event.group)
        if members is None:
            raise FaultPlanError(
                f"{event.kind} names group {event.group!r}; the topology "
                f"has {sorted(self.groups)}"
            )
        return scope_indices <= members

    def sigma_noisy(self, scope_indices: FrozenSet[int], t: Time) -> bool:
        """Whether ``Sigma`` over this scope is inside a noise window.

        During the window the sample is pinned to the *full* scope:
        any two pinned/true samples still intersect (the true sample
        always contains an alive scope member), so Intersection holds;
        Liveness only constrains the suffix after the window.
        """
        for event in self._sigma_noise:
            if event.active(t) and self._scopes(event, scope_indices):
                return True
        return False

    def omega_unstable(self, scope_indices: FrozenSet[int], t: Time) -> bool:
        """Whether ``Omega`` over this scope is still inside a noise
        window (the reported leader may rotate among alive members)."""
        for event in self._omega_late:
            if t < event.until and self._scopes(event, scope_indices):
                return True
        return False

    # -- Audit -------------------------------------------------------------

    def audit(
        self,
        final_time: Time,
        buffer: Optional[Any] = None,
        pattern: Optional[FailurePattern] = None,
    ) -> List[str]:
        """Post-run admissibility audit; returns violation strings.

        Checks the *dynamic* half of the plan's promises (the static
        half — finite windows, bounded budgets — is enforced by
        :class:`repro.faults.plan.FaultEvent` validation):

        * bounded duplication and loss: stats never exceed budgets;
        * fair-lossy links: every dropped datagram was retransmitted;
        * no forgotten datagram: once the run is past the horizon the
          delay heap must be *empty* — every release time is bounded by
          the horizon, and crash cleanup purges entries for dead
          destinations, so anything still sequestered is a datagram a
          host forgot to release (not merely the overdue subset: a
          sequestered datagram with a bogus future release time is just
          as lost to its alive destination);
        * crash monotonicity: the perturbed pattern never un-crashes or
          postpones a crash of the base pattern.
        """
        violations: List[str] = []
        dup_budget = sum(e.amount for e in self._dups)
        if self.stats["duplicated"] > dup_budget:
            violations.append(
                f"duplication exceeded budget: {self.stats['duplicated']} > "
                f"{dup_budget}"
            )
        drop_budget = sum(e.amount for e in self._drops)
        if self.stats["dropped"] > drop_budget:
            violations.append(
                f"drops exceeded budget: {self.stats['dropped']} > "
                f"{drop_budget}"
            )
        if self.stats["dropped"] != self.stats["retransmitted"]:
            violations.append(
                f"fair-lossy violated: {self.stats['dropped']} drops but "
                f"{self.stats['retransmitted']} retransmissions"
            )
        if self.stats["flaky_dropped"] != self.stats["flaky_retransmitted"]:
            violations.append(
                f"fair-lossy violated on flaky links: "
                f"{self.stats['flaky_dropped']} drops but "
                f"{self.stats['flaky_retransmitted']} retransmissions"
            )
        if buffer is not None and final_time >= self.horizon:
            sequestered = buffer.delayed_count()
            if sequestered:
                violations.append(
                    f"{sequestered} datagram(s) still sequestered in the "
                    f"delay queue at t={final_time} (plan horizon "
                    f"{self.horizon})"
                )
        if pattern is not None and self._base_pattern is not None:
            for p, when in self._base_pattern.crash_times.items():
                moved = pattern.crash_times.get(p)
                if moved is None or moved > when:
                    violations.append(
                        f"crash monotonicity violated at {p.name}: "
                        f"{when} -> {moved}"
                    )
                if pattern.recovery_times.get(p) is not None:
                    violations.append(
                        f"recovery resurrects a base-pattern crash at "
                        f"{p.name} (crashed at {when})"
                    )
            for p, rejoin in pattern.recovery_times.items():
                crashed = pattern.crash_times.get(p)
                if crashed is None or rejoin <= crashed:
                    violations.append(
                        f"recovery at {p.name} without a preceding crash "
                        f"({crashed} -> {rejoin})"
                    )
        return violations

    def summary(self) -> Dict[str, Any]:
        """Row-ready description of what the injector actually did."""
        return {
            "plan_hash": self.plan.plan_hash(),
            "events": len(self.plan),
            "horizon": self.horizon,
            "stats": {k: v for k, v in self.stats.items() if v},
        }


class NoisySigma(Timeline):
    """``Sigma`` under ``sigma_noise``, as a history: the full scope while
    ``noisy`` (operations stall, admissibly, until the window closes),
    the wrapped history elsewhere.  ``noisy`` decides each epoch that
    ``inner``'s instants and the windows' ``edges`` cut, once; the last
    is past every window.  :attr:`noised` counts the pinned rounds."""

    kind = "Sigma"

    def __init__(
        self, inner: Timeline, edges: Iterable[Time], noisy: Callable[[Time], bool]
    ) -> None:
        self.scope = inner.scope
        instants = sorted({t for t in (*inner.instants, *edges) if t > 0})
        starts = epoch_starts(instants)
        pinned = [noisy(t) for t in starts]
        values = [
            self.scope if pin else inner.query(None, t)
            for t, pin in zip(starts, pinned)
        ]
        super().__init__(instants, values)
        self.noised = sum(b - a for a, b, pin in zip(starts, instants, pinned) if pin)


class LateOmega(Timeline):
    """``Omega_g`` under ``omega_late``, as a history: while ``unstable``,
    the leader rotates among the alive members by round (no injector
    randomness); from the first stable round on, the wrapped history.
    That round floors :attr:`stabilization_time` (the engine reads it),
    so from it on every answer is :attr:`eventual_leader`.
    :attr:`rotated` counts the rotated rounds."""

    kind = "Omega"

    def __init__(self, inner: Timeline, unstable: Callable[[Time], bool]) -> None:
        self.scope = inner.scope
        self.eventual_leader = inner.eventual_leader
        members = sorted(self.scope)
        values: List[Any] = []
        self.rotated = floor = 0
        while unstable(floor):
            alive = [q for q in members if inner.pattern.is_alive(q, floor)]
            self.rotated += bool(alive)
            values.append(
                alive[floor % len(alive)] if alive else inner.query(None, floor)
            )
            floor += 1
        self.stabilization_time = max(inner.stabilization_time, floor)
        later = [t for t in inner.instants if t > floor]
        values.extend(inner.query(None, t) for t in (floor, *later))
        super().__init__([*range(1, floor + 1), *later], values)


def _indices(scope: ProcessSet) -> FrozenSet[int]:
    """A scope as the member indices fault events name."""
    return frozenset(q.index for q in scope)


def group_index_map(topology) -> Dict[str, FrozenSet[int]]:
    """Group name -> member indices, the injector's scoping map."""
    return {g.name: _indices(g.members) for g in topology.groups}


def injector_for(
    plan: Optional[FaultPlan], topology, seed: int = 0
) -> Optional[FaultInjector]:
    """An injector for ``plan`` (None when there is no plan)."""
    if plan is None:
        return None
    return FaultInjector(plan, group_index_map(topology), seed=seed)
