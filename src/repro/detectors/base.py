"""Failure-detector base abstractions (Appendix A).

A failure detector is an oracle queried locally: ``D.query(p, t)`` returns
the local sample ``H(p, t)`` of some history ``H in D(F)``.  The pattern
oracles, and the fault layer's perturbed forms of them, are
:class:`Timeline` values: histories computed from the run's failure
pattern (and fault plan) when they are built — exactly the model's
definition of a detector (a mapping from failure patterns to histories).  Emulated
detectors (Algorithms 2–5) instead derive their answers from protocol
executions; both expose the same :class:`FailureDetector` interface.

The special value :data:`BOTTOM` is the ``⊥`` returned by set-restricted
detectors outside their scope.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Sequence, Tuple

from repro.model.failures import Time
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
    """Interface of a failure-detector module.  The validation harness in
    :mod:`repro.detectors.validation` judges lists of :meth:`query`
    samples against the class properties (Intersection, Liveness, ...)."""

    #: short class label, e.g. "Sigma", used in diagnostics.
    kind: str = "D"

    def query(self, p: ProcessId, t: Time) -> Any:
        """Return the sample ``H(p, t)``; must be overridden."""
        raise NotImplementedError


def epoch_starts(instants: Sequence[Time]) -> Tuple[Time, ...]:
    """The first time of each epoch ``instants`` cut: 0, then each instant."""
    return (0, *instants)


class Timeline(FailureDetector):
    """A detector output as data, the same at every process: ``values[i]``
    over the ``i``-th epoch the sorted :attr:`instants` cut, so there is
    one more value than instants.  A pattern oracle computes each value
    once, at its epoch's first time (:func:`epoch_starts`), when built.
    """

    def __init__(self, instants: Sequence[Time], values: Sequence[Any]) -> None:
        self.instants = list(instants)
        self.values = tuple(values)

    def query(self, p: ProcessId, t: Time) -> Any:
        instants = self.instants
        if instants:
            return self.values[bisect_right(instants, t)]
        return self.values[0]
