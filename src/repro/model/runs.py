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
class Step:
    """One step ``(p, m, d)`` of an automaton, with its time.

    ``received`` is a descriptive token (datagram repr or ``None``) rather
    than the datagram object itself so records stay cheap to keep around.
    The detector sample ``d`` is not kept: no checker reads it.
    """

    time: Time
    process: ProcessId
    received: Optional[str]


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
    * ``delivered_by(m)`` — who delivered ``m`` and when;
    * ``steps_of(p)`` — computational steps charged to ``p``, the basis of
      the Minimality audit (§2.3).
    """

    def __init__(self, processes: ProcessSet, pattern: FailurePattern) -> None:
        self.processes = processes
        self.pattern = pattern
        self.multicasts: List[MulticastEvent] = []
        self.deliveries: List[DeliveryEvent] = []
        # Steps are kept as one ``(time, processes, received)`` entry
        # per charge: the step flood (invoker + every carrier, per
        # shared-object operation) dominates record growth, and one
        # tuple append per operation is far cheaper than one frozen
        # dataclass per step.  ``steps`` materializes the Step view
        # lazily for checkers and tests.
        self._entries: List[
            Tuple[Time, Tuple[ProcessId, ...], Optional[str]]
        ] = []
        self._steps_cache: List[Step] = []
        #: How many entries ``_steps_cache`` has flattened so far.
        self._steps_flattened = 0
        self._local_orders: Dict[ProcessId, List[MulticastMessage]] = {}
        self._delivery_times: Dict[Tuple[ProcessId, Any], Time] = {}
        self._times_by_mid: Dict[Any, Dict[ProcessId, Time]] = {}
        self._pair_counts: Dict[Tuple[ProcessId, Any], int] = {}
        self._multicast_times: Dict[Any, Time] = {}
        self._step_counts: Dict[ProcessId, int] = {}

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
        self._delivery_times[(process, message.mid)] = time
        self._times_by_mid.setdefault(message.mid, {})[process] = time
        pair = (process, message.mid)
        self._pair_counts[pair] = self._pair_counts.get(pair, 0) + 1

    def note_step(
        self,
        time: Time,
        process: ProcessId,
        received: Optional[str] = None,
    ) -> None:
        self._entries.append((time, (process,), received))
        self._step_counts[process] = self._step_counts.get(process, 0) + 1

    def note_steps(
        self,
        time: Time,
        processes: Tuple[ProcessId, ...],
        received: Optional[str] = None,
    ) -> None:
        """One :meth:`note_step` per process, in order, as one write.

        A shared-object operation charges its invoker and every carrier
        at once (:mod:`repro.objects.space`); this is that flood's entry
        point.  The entry keeps ``processes`` itself, so any other
        sequence than a tuple is copied first.
        """
        if type(processes) is not tuple:
            processes = tuple(processes)
        self._entries.append((time, processes, received))
        counts = self._step_counts
        for process in processes:
            try:
                counts[process] += 1
            except KeyError:
                counts[process] = 1

    @property
    def steps(self) -> List[Step]:
        """The recorded steps as :class:`Step` objects (lazy view).

        Flattened from the per-charge entries on access, extending the
        cached list by the entries recorded since; treat the returned
        list as read-only.
        """
        cache = self._steps_cache
        entries = self._entries
        if self._steps_flattened < len(entries):
            cache.extend(
                Step(t, p, r)
                for t, ps, r in entries[self._steps_flattened :]
                for p in ps
            )
            self._steps_flattened = len(entries)
        return cache

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
        return self._delivery_times.get((p, message.mid))

    def first_delivery_time(self, message: MulticastMessage) -> Optional[Time]:
        times = self._times_by_mid.get(message.mid)
        return min(times.values()) if times else None

    def multicast_time(self, message: MulticastMessage) -> Optional[Time]:
        return self._multicast_times.get(message.mid)

    def steps_of(self, p: ProcessId) -> int:
        """Number of computational steps charged to ``p`` in the run."""
        return self._step_counts.get(p, 0)

    def step_counts(self) -> Mapping[ProcessId, int]:
        return dict(self._step_counts)

    def delivery_count(self, p: ProcessId, message: MulticastMessage) -> int:
        """How many times ``p`` delivered ``message`` (Integrity wants <= 1)."""
        return self._pair_counts.get((p, message.mid), 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunRecord({len(self.multicasts)} multicasts, "
            f"{len(self.deliveries)} deliveries, "
            f"{sum(self._step_counts.values())} steps)"
        )
