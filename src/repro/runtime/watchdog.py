"""Stall watchdog: a liveness backstop for every execution loop.

A *stall* is a run that keeps consuming budget without making useful
progress — the superseded-proposer bug (the ``supersede-wait`` test
patch of ``tests/substrates/_oracle.py``) is the canonical specimen:
the kernel keeps circulating datagrams forever while no replica ever
applies another log entry.  Without a backstop such a
run burns its entire round budget; with one, it fails *fast* and fails
*descriptive*.

:class:`StallWatchdog` is a ``stop_when``-style probe the drivers call
once per round (or per supervision tick, for the async driver).  It
watches a caller-supplied *progress fingerprint* — deliveries recorded,
log entries applied — and raises :class:`StallError` once the
fingerprint has not changed for ``window`` consecutive checks past the
detector settle horizon.  The error carries the wait-reason histogram
of the stalled suffix, so the triage record says not just "it stalled"
but *what everyone was waiting for* — the histogram is how the
supersede-wait stall was originally diagnosed.

The watchdog is deliberately an execution-harness concern, not part of
the :class:`~repro.workloads.spec.ScenarioSpec`: two runs of one spec
with different watchdog settings explore the same run, one just gives
up on it earlier.  Spec hashes, cache keys and golden traces are
therefore untouched by watchdog configuration.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from repro.model.errors import SimulationError

__all__ = ["StallError", "StallWatchdog"]


class StallError(SimulationError):
    """A run made no progress for a whole no-progress window.

    Attributes:
        wait_reasons: histogram of why scanned-but-idle processes were
            blocked over the stalled suffix — the diagnosis.
        stalled_checks: how many consecutive progress checks saw no
            change before the watchdog gave up.
        at_time: logical time at which the watchdog fired.
    """

    def __init__(
        self,
        message: str,
        *,
        wait_reasons: Optional[Mapping[str, int]] = None,
        stalled_checks: int = 0,
        at_time: int = 0,
    ) -> None:
        super().__init__(message)
        self.wait_reasons: Dict[str, int] = dict(wait_reasons or {})
        self.stalled_checks = stalled_checks
        self.at_time = at_time

    def to_triage(self) -> Dict[str, Any]:
        """The stall as one JSON-ready triage payload."""
        return {
            "at_time": self.at_time,
            "stalled_checks": self.stalled_checks,
            "wait_reasons": dict(self.wait_reasons),
        }


class StallWatchdog:
    """Detect no-progress windows; raise :class:`StallError` with a
    wait-reason histogram instead of letting the run burn its budget.

    Args:
        progress: returns the current progress fingerprint — any
            equality-comparable value that changes when the run does
            something *useful* (e.g. ``lambda: len(record.deliveries)``).
            Productive-looking churn that never moves the fingerprint is
            exactly what the watchdog exists to catch.
        window: consecutive no-change checks tolerated before the
            watchdog declares a stall.  Checks happen once per round
            (round drivers) or once per supervision tick (async driver),
            so the window is in round units either way.
        wait_reasons: returns the wait-reason histogram to attach to the
            :class:`StallError` (typically a closure over the tracer).
            ``None`` attaches an empty histogram.
        grace: logical time before which the watchdog never fires —
            pass the settle horizon: detector-blocked idling during
            stabilization is convergence, not a stall.
    """

    def __init__(
        self,
        progress: Callable[[], Any],
        *,
        window: int = 64,
        wait_reasons: Optional[Callable[[], Mapping[str, int]]] = None,
        grace: int = 0,
    ) -> None:
        if window < 1:
            raise SimulationError("watchdog window must be >= 1 check")
        self.progress = progress
        self.window = int(window)
        self.wait_reasons = wait_reasons
        self.grace = int(grace)
        self._last: Any = progress()
        self._idle = 0

    def _histogram(self) -> Dict[str, int]:
        if self.wait_reasons is None:
            return {}
        return dict(self.wait_reasons())

    def check(self, t: int) -> None:
        """One probe at logical time ``t``; raises on a detected stall."""
        current = self.progress()
        if current != self._last:
            self._last = current
            self._idle = 0
            return
        if t <= self.grace:
            return
        self._idle += 1
        if self._idle >= self.window:
            raise StallError(
                f"no progress for {self._idle} checks (t={t}, "
                f"window={self.window}) — stalled run cut short",
                wait_reasons=self._histogram(),
                stalled_checks=self._idle,
                at_time=t,
            )

    def stop_when(self, now: Callable[[], int]) -> Callable[[], bool]:
        """Adapt the watchdog to a driver's ``stop_when`` slot.

        The returned probe never asks the driver to stop — it *raises*
        on a stall (a stall is an error, not a quiet early exit), and
        returns ``False`` otherwise.  ``now`` supplies the driver's
        logical clock.
        """

        def probe() -> bool:
            self.check(now())
            return False

        return probe
