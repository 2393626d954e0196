"""Failure patterns and environments (Appendix A of the paper).

A *failure pattern* is a monotone function ``F : N -> 2^P`` giving the set
of processes that have crashed by each time.  Processes never recover.
``Faulty(F)`` is the union of all ``F(t)`` and ``Correct(F)`` its
complement.  An *environment* is a set of failure patterns describing which
failures may happen.

The classes below make patterns finite and executable: a pattern is stored
as a set of ``(process, crash_time)`` events, and the environment abstraction
is realized by generators (all patterns with at most ``k`` crashes, patterns
where a given set is failure-prone, ...).

The robustness harness extends the crash-stop model with an *optional*
crash–recovery overlay: ``recovery_times`` maps a crashed process to the
time at which it rejoins (from its durable substrate state).  A pattern
without recoveries is exactly the paper's monotone object, and every
recovery-free query below reduces to the crash-stop semantics — the
overlay exists so the fault axis (``crash_recover`` events) can model
processes that come back, while the *classification* stays standard:
a process that crashes and recovers counts as *correct* ("eventually
always up", the crash-recovery notion of correctness), so detector
properties (Leadership, Intersection/Liveness) keep their meaning on
the suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.model.errors import ModelError
from repro.model.processes import ProcessId, ProcessSet, pset

#: Time is the range of the global clock: natural numbers.
Time = int


@dataclass(frozen=True)
class FailurePattern:
    """A monotone crash schedule.

    Attributes:
        processes: all processes of the system.
        crash_times: maps each faulty process to the first time at which it
            is crashed.  Processes absent from the mapping are correct.
        recovery_times: crash–recovery overlay; maps a crashed process to
            the time at which it rejoins.  Empty in the crash-stop model.
    """

    processes: ProcessSet
    crash_times: Mapping[ProcessId, Time] = field(default_factory=dict)
    recovery_times: Mapping[ProcessId, Time] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.crash_times) - set(self.processes)
        if unknown:
            raise ModelError(f"crash times for unknown processes: {sorted(unknown)}")
        for proc, when in self.crash_times.items():
            if when < 0:
                raise ModelError(f"negative crash time {when} for {proc}")
        for proc, when in self.recovery_times.items():
            crashed = self.crash_times.get(proc)
            if crashed is None:
                raise ModelError(f"recovery for never-crashed {proc}")
            if when <= crashed:
                raise ModelError(
                    f"recovery at {when} not after crash at {crashed} "
                    f"for {proc}"
                )
        # Freeze the mappings so patterns are hashable value objects.
        object.__setattr__(self, "crash_times", dict(self.crash_times))
        object.__setattr__(self, "recovery_times", dict(self.recovery_times))

    # -- The mathematical interface -------------------------------------

    def at(self, t: Time) -> ProcessSet:
        """``F(t)``: the set of processes down at time ``t``."""
        return pset(p for p in self.crash_times if not self.is_alive(p, t))

    @property
    def faulty(self) -> ProcessSet:
        """``Faulty(F)``: processes that crash and never come back."""
        return pset(
            p for p in self.crash_times if p not in self.recovery_times
        )

    @property
    def correct(self) -> ProcessSet:
        """``Correct(F)``: processes that are eventually always up."""
        return pset(p for p in self.processes if self.is_correct(p))

    # -- Convenience queries ---------------------------------------------

    def is_alive(self, p: ProcessId, t: Time) -> bool:
        """Whether ``p`` is up at time ``t`` (crash-stop: not yet
        crashed; with a recovery, also every time from the rejoin on)."""
        when = self.crash_times.get(p)
        if when is None or when > t:
            return True
        rejoin = self.recovery_times.get(p)
        return rejoin is not None and t >= rejoin

    def is_faulty(self, p: ProcessId) -> bool:
        return p in self.crash_times and p not in self.recovery_times

    def is_correct(self, p: ProcessId) -> bool:
        return p not in self.crash_times or p in self.recovery_times

    def crash_time_of_set(self, group: Iterable[ProcessId]) -> Optional[Time]:
        """First time at which all of ``group`` is crashed, if ever.

        Returns ``None`` when some member is correct (the set never fails)
        and ``0`` for an empty group.
        """
        times = []
        for p in group:
            when = self.crash_times.get(p)
            if when is None or p in self.recovery_times:
                # A recovering member is eventually always up, so the
                # set is never *permanently* down.
                return None
            times.append(when)
        return max(times) if times else 0

    # -- Derivation -------------------------------------------------------

    def change_instants(self) -> Tuple[Time, ...]:
        """Every instant at which the alive set changes, sorted.

        Crash times plus recovery times — the epoch boundaries that
        alive-set caches (detector oracles, the scheduler's
        eligible-order memo) must respect.  Crash-stop patterns reduce
        to the sorted crash times.
        """
        return tuple(
            sorted(
                set(self.crash_times.values())
                | set(self.recovery_times.values())
            )
        )

    def restricted_to(self, subset: ProcessSet) -> "FailurePattern":
        """``F ∩ P``: the pattern obtained by dropping processes outside
        ``subset`` (used to define set-restricted failure detectors).
        A pattern already inside ``subset`` is its own restriction."""
        if self.processes <= subset:
            return self
        return FailurePattern(
            processes=pset(p for p in self.processes if p in subset),
            crash_times={p: t for p, t in self.crash_times.items() if p in subset},
            recovery_times={
                p: t for p, t in self.recovery_times.items() if p in subset
            },
        )

    def with_crash(self, p: ProcessId, t: Time) -> "FailurePattern":
        """A new pattern where ``p`` additionally crashes at ``t``.

        The environments considered in §5.2 are closed under this
        operation for failure-prone processes ("if a process may fail, it
        may fail at any time").
        """
        if p not in self.processes:
            raise ModelError(f"{p} is not part of the system")
        times = dict(self.crash_times)
        current = times.get(p)
        times[p] = t if current is None else min(current, t)
        recoveries = dict(self.recovery_times)
        rejoin = recoveries.get(p)
        if rejoin is not None and rejoin <= times[p]:
            del recoveries[p]
        return FailurePattern(self.processes, times, recoveries)

    def with_recovery(self, p: ProcessId, t: Time) -> "FailurePattern":
        """A new pattern where the crashed ``p`` rejoins at ``t``.

        Requires an existing crash strictly before ``t``; a later
        recovery wins when stacked (the process is up from the last
        rejoin on either way).
        """
        if p not in self.processes:
            raise ModelError(f"{p} is not part of the system")
        if p not in self.crash_times:
            raise ModelError(f"recovery for never-crashed {p}")
        recoveries = dict(self.recovery_times)
        current = recoveries.get(p)
        recoveries[p] = t if current is None else max(current, t)
        return FailurePattern(self.processes, self.crash_times, recoveries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        def _one(p: ProcessId, t: Time) -> str:
            rejoin = self.recovery_times.get(p)
            suffix = f"^{rejoin}" if rejoin is not None else ""
            return f"{p.name}@{t}{suffix}"

        crashes = ", ".join(
            _one(p, t) for p, t in sorted(self.crash_times.items())
        )
        return f"FailurePattern({crashes or 'failure-free'})"


def failure_free(processes: ProcessSet) -> FailurePattern:
    """The pattern in which no process ever crashes."""
    return FailurePattern(processes, {})


def crash_pattern(
    processes: ProcessSet, crashes: Mapping[ProcessId, Time]
) -> FailurePattern:
    """Build a pattern from an explicit ``process -> crash time`` mapping."""
    return FailurePattern(processes, dict(crashes))


@dataclass(frozen=True)
class Environment:
    """A set of failure patterns, intensionally described.

    ``E*`` (all patterns) is modelled by ``max_failures = len(processes)``.
    The environments of §5.2 additionally satisfy closure under early
    crashes, which holds for every environment expressible here.

    Attributes:
        processes: the system's processes.
        max_failures: upper bound on ``|Faulty(F)|`` over patterns in the
            environment.
        reliable: processes that never fail in any pattern of the
            environment (used to model the "logically correct entity"
            assumption of partitioned protocols, §7).
    """

    processes: ProcessSet
    max_failures: int
    reliable: ProcessSet = frozenset()

    def __post_init__(self) -> None:
        if self.max_failures < 0:
            raise ModelError("max_failures must be non-negative")
        if not self.reliable <= self.processes:
            raise ModelError("reliable processes must belong to the system")

    def contains(self, pattern: FailurePattern) -> bool:
        """Whether ``pattern`` belongs to the environment."""
        if pattern.processes != self.processes:
            return False
        if len(pattern.faulty) > self.max_failures:
            return False
        return not (pattern.faulty & self.reliable)

    def failure_prone(self, group: Iterable[ProcessId]) -> bool:
        """Whether all of ``group`` may crash in some pattern (§5.2)."""
        members = pset(group)
        if members & self.reliable:
            return False
        return len(members) <= self.max_failures

    def patterns(
        self,
        start: Time = 0,
        gap: Time = 0,
        subsets: Optional[Sequence[ProcessSet]] = None,
    ) -> Iterator[FailurePattern]:
        """Enumerate representative patterns of the environment.

        Yields the failure-free pattern first, then one pattern per
        candidate faulty set (every subset of non-reliable processes
        within the bound, or the caller-provided ``subsets``), skipping
        any that fall outside the environment.  The set's members (in
        process order) crash ``gap`` rounds apart starting at ``start``:
        ``gap=0`` crashes the whole set at once, a positive ``gap`` is the
        *staggered* burst a nemesis ``crash_burst`` event produces — the
        shape under which crash-monotonicity and quorum-handover bugs
        surface, since simultaneous crashes let an implementation conflate
        "the set failed" with "the set failed atomically".
        """
        if start < 0:
            raise ModelError("crash start must be non-negative")
        if gap < 0:
            raise ModelError("crash gap must be non-negative")
        yield failure_free(self.processes)
        candidates: Iterable[ProcessSet]
        if subsets is not None:
            candidates = subsets
        else:
            candidates = _subsets_upto(
                pset(self.processes - self.reliable), self.max_failures
            )
        for faulty in candidates:
            if not faulty:
                continue
            pattern = FailurePattern(
                self.processes,
                {p: start + i * gap for i, p in enumerate(sorted(faulty))},
            )
            if self.contains(pattern):
                yield pattern


def all_patterns_environment(processes: ProcessSet) -> Environment:
    """``E*``: any subset of processes may crash, at any time."""
    return Environment(processes, max_failures=len(processes))


def _subsets_upto(universe: ProcessSet, k: int) -> Iterator[ProcessSet]:
    """All subsets of ``universe`` of size at most ``k``, smallest first."""
    from itertools import combinations

    ordered = sorted(universe)
    for size in range(1, min(k, len(ordered)) + 1):
        for combo in combinations(ordered, size):
            yield pset(combo)
