"""Steps, schedules and run records (Appendix A).

A *step* is a tuple ``(p, m, d)``: process ``p`` receives datagram ``m``
(possibly null) with failure-detector sample ``d`` and transitions.  A
*schedule* is a sequence of steps; a *run* pairs a failure pattern, a
detector history, an initial configuration, a schedule and a timing.

For the executable reproduction the important artifact is the
:class:`RunRecord`: the trace that the simulator produces and that the
property checkers in :mod:`repro.props` consume.  It records, with global
timestamps, every multicast, every delivery, and every computational step
taken by every process — enough to decide Integrity, Ordering, Termination,
Strict Ordering, Minimality and Group Parallelism after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.model.failures import FailurePattern, Time
from repro.model.messages import MulticastMessage
from repro.model.processes import ProcessId, ProcessSet


@dataclass(frozen=True, slots=True)
class MulticastEvent:
    """``multicast(m)`` was invoked."""

    time: Time
    process: ProcessId
    message: MulticastMessage


@dataclass(frozen=True, slots=True)
class DeliveryEvent:
    """``deliver(m)`` occurred at a process."""

    time: Time
    process: ProcessId
    message: MulticastMessage


class RunRecord:
    """The observable trace of one simulated run.

    The record is append-only during the run and read-only afterwards.
    It provides the derived relations used throughout the paper:

    * ``local_order(p)`` — the delivery sequence at ``p`` (yields the
      local order ``m |->_p m'``);
    * ``delivered_by(m)`` — who delivered ``m``, and ``delivery_time(p,
      m)`` when;
    * ``undelivered(m)`` — the correct members of ``dst(m)`` that still
      owe ``m`` a delivery: Termination, Group Parallelism and the
      runner's success verdict all read this one rule, over the
      ``faulty`` set the record computes once;
    * ``steps_of(p)`` — computational steps charged to ``p``, the basis of
      the Minimality audit (§2.3).
    """

    def __init__(self, processes: ProcessSet, pattern: FailurePattern) -> None:
        self.processes = processes
        self.pattern = pattern
        self.multicasts: List[MulticastEvent] = []
        self.deliveries: List[DeliveryEvent] = []
        #: ``Faulty(F)``, once per run: the processes no delivery is
        #: owed to (``pattern.faulty`` rebuilds the set on every read).
        self.faulty: ProcessSet = pattern.faulty
        #: The charges, one ``(time, processes, received)`` entry each,
        #: append-only: the step flood (invoker + every carrier, per
        #: shared-object operation) dominates record growth, so a
        #: charge is one tuple append and nothing else.  A step
        #: ``(p, m, d)`` of ``p`` is one ``p`` in some entry's
        #: ``processes``; the per-process counts are derived on read,
        #: from a cursor into this list.  A writer appends here directly
        #: (the engine's charge sink does) or through :meth:`note_steps`;
        #: ``processes`` is a tuple.
        self.charges: List[
            Tuple[Time, Tuple[ProcessId, ...], Optional[str]]
        ] = []
        self._local_orders: Dict[ProcessId, List[MulticastMessage]] = {}
        #: ``mid -> {process: time of its (last) delivery}``.
        self._times_by_mid: Dict[Any, Dict[ProcessId, Time]] = {}
        self._multicast_times: Dict[Any, Time] = {}
        self._step_counts: Dict[ProcessId, int] = {}
        #: How many charges ``_step_counts`` has counted so far.
        self._steps_counted = 0

    # -- Recording (called by the simulator) -----------------------------

    def note_multicast(
        self, time: Time, process: ProcessId, message: MulticastMessage
    ) -> None:
        self.multicasts.append(MulticastEvent(time, process, message))
        self._multicast_times.setdefault(message.mid, time)

    def note_delivery(
        self, time: Time, process: ProcessId, message: MulticastMessage
    ) -> None:
        self.deliveries.append(DeliveryEvent(time, process, message))
        self._local_orders.setdefault(process, []).append(message)
        self._times_by_mid.setdefault(message.mid, {})[process] = time

    def note_step(
        self,
        time: Time,
        process: ProcessId,
        received: Optional[str] = None,
    ) -> None:
        self.charges.append((time, (process,), received))

    def note_steps(
        self,
        time: Time,
        processes: Tuple[ProcessId, ...],
        received: Optional[str] = None,
    ) -> None:
        """One :meth:`note_step` per process, in order, as one charge.

        The entry keeps ``processes`` itself, so any other sequence than
        a tuple is copied first.
        """
        if type(processes) is not tuple:
            processes = tuple(processes)
        self.charges.append((time, processes, received))

    def _counts(self) -> Dict[ProcessId, int]:
        """The per-process step counts, folded forward over the charges
        recorded since the last read (keys in first-charge order)."""
        counts = self._step_counts
        charges = self.charges
        if self._steps_counted < len(charges):
            for _t, processes, _r in charges[self._steps_counted :]:
                for process in processes:
                    try:
                        counts[process] += 1
                    except KeyError:
                        counts[process] = 1
            self._steps_counted = len(charges)
        return counts

    # -- Derived queries (used by checkers and metrics) -------------------

    def local_order(self, p: ProcessId) -> Sequence[MulticastMessage]:
        """Messages in the order ``p`` delivered them."""
        return tuple(self._local_orders.get(p, ()))

    def delivered_messages(self) -> Tuple[MulticastMessage, ...]:
        """Every distinct message delivered somewhere, in event order."""
        seen = {}
        for event in self.deliveries:
            seen.setdefault(event.message.mid, event.message)
        return tuple(seen.values())

    def multicast_messages(self) -> Tuple[MulticastMessage, ...]:
        seen = {}
        for event in self.multicasts:
            seen.setdefault(event.message.mid, event.message)
        return tuple(seen.values())

    def delivered_by(self, message: MulticastMessage) -> ProcessSet:
        return frozenset(self._times_by_mid.get(message.mid, ()))

    def delivery_time(
        self, p: ProcessId, message: MulticastMessage
    ) -> Optional[Time]:
        times = self._times_by_mid.get(message.mid)
        return times.get(p) if times else None

    def undelivered(self, message: MulticastMessage) -> ProcessSet:
        """The correct members of ``dst(message)`` that have not delivered
        it: who still owes a delivery (Termination, §2.2)."""
        owed = message.dst - self.faulty
        times = self._times_by_mid.get(message.mid)
        return owed.difference(times) if times else owed

    def first_delivery_time(self, message: MulticastMessage) -> Optional[Time]:
        times = self._times_by_mid.get(message.mid)
        return min(times.values()) if times else None

    def multicast_time(self, message: MulticastMessage) -> Optional[Time]:
        return self._multicast_times.get(message.mid)

    def steps_of(self, p: ProcessId) -> int:
        """Number of computational steps charged to ``p`` in the run."""
        return self._counts().get(p, 0)

    def step_counts(self) -> Mapping[ProcessId, int]:
        return dict(self._counts())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunRecord({len(self.multicasts)} multicasts, "
            f"{len(self.deliveries)} deliveries, "
            f"{sum(self._counts().values())} steps)"
        )
