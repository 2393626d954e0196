"""The indicator failure detector ``1^P`` (§6.1).

``1^P`` returns a boolean such that:

* *Accuracy*: ``True`` implies all of ``P`` is crashed now;
* *Completeness*: once all of ``P`` is crashed, correct processes
  eventually read ``True`` forever.

The paper's ``1^{g∩h}`` is the indicator for ``P = g ∩ h`` restricted to
the processes of ``g ∪ h``; for members of ``g ∩ h`` the constant
``True``-on-death output carries no usable information (a process inside
the intersection that reads ``True`` is itself crashed).
"""

from __future__ import annotations

from repro.detectors.base import Timeline
from repro.model.errors import DetectorError
from repro.model.failures import FailurePattern, Time
from repro.model.processes import ProcessSet, pset


class IndicatorOracle(Timeline):
    """Oracle-backed ``1^P``: whether ``watched`` is (detectably)
    entirely crashed.

    Attributes:
        watched: the set ``P`` whose collective death is reported.
        detection_lag: delay between the death of ``P`` and the first
            ``True`` sample (0 = immediate).
    """

    kind = "1"

    def __init__(
        self,
        pattern: FailurePattern,
        watched: ProcessSet,
        detection_lag: Time = 0,
    ) -> None:
        if not watched:
            raise DetectorError("indicator scope must be non-empty")
        self.pattern = pattern
        self.watched = pset(watched)
        self.detection_lag = detection_lag
        death_time = pattern.crash_time_of_set(self.watched)
        if death_time is None:
            super().__init__([], [False])
        else:
            super().__init__([death_time + detection_lag], [False, True])
