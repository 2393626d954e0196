"""Validation harness for failure-detector histories.

Each ``check_*`` function replays a recorded history — a sequence of
``(process, time, value)`` samples — against the defining properties of a
detector class and returns a list of human-readable violations (empty
means the history is admissible).

Eventual properties (Liveness, Leadership, Completeness) are checked on
the *final suffix* of the history: a finite prefix cannot falsify an
eventual property, but a run that has executed long past the last crash
should already exhibit the limit behaviour, and the emulation tests run
exactly such histories.

These checks are what turns the paper's detector definitions into
executable oracles for the necessity experiments (Algorithms 2–5): the
emulated detectors must pass the very same checks as the ideal ones.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.groups.families import family_faulty_at
from repro.groups.topology import GroupTopology
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId, ProcessSet

#: A recorded history: (process, time, value) samples in query order.
History = Sequence[Tuple[ProcessId, Time, Any]]


def _samples_by_process(history: History) -> Dict[ProcessId, List[Tuple[Time, Any]]]:
    grouped: Dict[ProcessId, List[Tuple[Time, Any]]] = {}
    for p, t, value in history:
        grouped.setdefault(p, []).append((t, value))
    return grouped


def check_sigma(
    history: History, pattern: FailurePattern, scope: ProcessSet
) -> List[str]:
    """Check the Intersection and Liveness properties of ``Sigma_P``."""
    violations: List[str] = []
    values = [(p, t, v) for p, t, v in history if v is not None]
    for p, t, v in values:
        if not v:
            violations.append(f"empty quorum at {p.name} t={t}")
        if not set(v) <= set(scope):
            violations.append(f"quorum outside scope at {p.name} t={t}: {v}")
    for i, (p, t, v) in enumerate(values):
        for q, u, w in values[i + 1 :]:
            if not (set(v) & set(w)):
                violations.append(
                    f"Intersection violated: {p.name}@{t} -> {sorted(v)} vs "
                    f"{q.name}@{u} -> {sorted(w)}"
                )
    correct_scope = {p for p in scope if pattern.is_correct(p)}
    if correct_scope:
        for p, samples in _samples_by_process(history).items():
            if not pattern.is_correct(p) or not samples:
                continue
            _, last = samples[-1]
            if last is not None and not set(last) <= pattern.correct:
                violations.append(
                    f"Liveness suspect: final quorum at {p.name} contains "
                    f"faulty processes {sorted(set(last) - pattern.correct)}"
                )
    return violations


def check_omega(
    history: History, pattern: FailurePattern, scope: ProcessSet
) -> List[str]:
    """Check the Leadership property of ``Omega_P``.

    On the restricted pattern ``F ∩ P``, when some member of the scope is
    correct, the final samples at all correct scope members must coincide
    on a single correct leader.
    """
    violations: List[str] = []
    correct_scope = {p for p in scope if pattern.is_correct(p)}
    if not correct_scope:
        return violations  # Leadership is vacuous.
    finals: Dict[ProcessId, Any] = {}
    for p, samples in _samples_by_process(history).items():
        if p in correct_scope and samples:
            finals[p] = samples[-1][1]
    leaders = set(finals.values())
    if len(leaders) > 1:
        violations.append(f"divergent final leaders: {finals}")
    for p, leader in finals.items():
        if leader not in correct_scope:
            violations.append(
                f"final leader at {p.name} is {leader!r}, not a correct "
                f"member of the scope"
            )
    return violations


def check_gamma(
    history: History, pattern: FailurePattern, topology: GroupTopology
) -> List[str]:
    """Check the Accuracy and Completeness properties of ``gamma``."""
    violations: List[str] = []
    for p, t, value in history:
        if value is None:
            continue
        known = set(topology.families_of_process(p))
        for family in known - set(value):
            if not family_faulty_at(family, pattern, t):
                violations.append(
                    f"Accuracy violated at {p.name} t={t}: a live family "
                    f"was excluded"
                )
    horizon = max(pattern.change_instants(), default=0)
    for p, samples in _samples_by_process(history).items():
        if not pattern.is_correct(p) or not samples:
            continue
        last_t, last = samples[-1]
        if last is None:
            continue
        for family in last:
            if family_faulty_at(family, pattern, max(horizon, last_t)):
                violations.append(
                    f"Completeness suspect at {p.name}: final output still "
                    f"contains a faulty family"
                )
    return violations


def check_indicator(
    history: History, pattern: FailurePattern, watched: ProcessSet
) -> List[str]:
    """Check the Accuracy and Completeness properties of ``1^P``."""
    violations: List[str] = []
    death_time = pattern.crash_time_of_set(watched)
    for p, t, value in history:
        if value and (death_time is None or t < death_time):
            violations.append(
                f"Accuracy violated at {p.name} t={t}: indicator raised "
                f"while {sorted(watched)} has live members"
            )
    if death_time is not None:
        for p, samples in _samples_by_process(history).items():
            if not pattern.is_correct(p) or not samples:
                continue
            last_t, last = samples[-1]
            if last_t > death_time and not last:
                violations.append(
                    f"Completeness suspect at {p.name}: indicator still "
                    f"False at t={last_t} though the set died at "
                    f"t={death_time}"
                )
    return violations
