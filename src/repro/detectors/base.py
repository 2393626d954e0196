"""Failure-detector base abstractions (Appendix A).

A failure detector is an oracle queried locally: ``D.query(p, t)`` returns
the local sample ``H(p, t)`` of some history ``H in D(F)``.  Oracle-backed
implementations compute their answers from the run's failure pattern —
this is exactly the model's definition of a detector (a mapping from
failure patterns to histories).  Emulated detectors (Algorithms 2–5)
instead derive their answers from protocol executions; both expose the
same :class:`FailureDetector` interface.

The special value :data:`BOTTOM` is the ``⊥`` returned by set-restricted
detectors outside their scope.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessId


class _Bottom:
    """The distinguished ``⊥`` sample (singleton)."""

    _instance = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "⊥"

    def __bool__(self) -> bool:
        return False


#: The ⊥ value returned by restricted detectors outside their scope.
BOTTOM = _Bottom()


class FailureDetector:
    """Interface of a failure-detector module.

    Subclasses implement :meth:`query`.  The base class records a history
    of all samples handed out, which the validation harness in
    :mod:`repro.detectors.validation` replays against the class
    properties (Intersection, Liveness, Leadership, Accuracy, ...).
    """

    #: short class label, e.g. "Sigma", used in diagnostics.
    kind: str = "D"

    #: The sorted times at which :meth:`query`'s answer may change, when
    #: the answer is a pure function of that epoch; ``None`` when it is
    #: not, and a caller caching samples must then ask on every call.
    instants: Optional[Sequence[Time]] = None

    def __init__(self) -> None:
        self._history: List[Tuple[ProcessId, Time, Any]] = []

    def query(self, p: ProcessId, t: Time) -> Any:
        """Return the sample ``H(p, t)``; must be overridden."""
        raise NotImplementedError

    def sample(self, p: ProcessId, t: Time) -> Any:
        """Query and record the sample in the observable history."""
        value = self.query(p, t)
        self._history.append((p, t, value))
        return value

    @property
    def history(self) -> Tuple[Tuple[ProcessId, Time, Any], ...]:
        """All recorded ``(process, time, value)`` samples, in query order."""
        return tuple(self._history)


class OracleDetector(FailureDetector):
    """A detector computed from the run's failure pattern.

    Attributes:
        pattern: the failure pattern ``F`` of the current run.
    """

    def __init__(self, pattern: FailurePattern) -> None:
        super().__init__()
        self.pattern = pattern
