"""The consensus object (sequential specification).

Algorithm 1 uses one consensus object per ``(message, family)`` pair to
agree on the final log position of a message.  Proposition 47's
adopt–commit fast path is a carrier classification on
:class:`repro.objects.space.IntersectionLogHandle`, not an object here.

This is the *sequential specification*; linearizability comes from the
runtime (operations execute atomically inside actions).  The genuine
message-passing consensus lives in :mod:`repro.substrates.consensus`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.model.errors import SpecificationError


class ConsensusObject:
    """Single-shot consensus: the first proposed value is decided.

    Validity, agreement and (in the linearized world) termination are
    immediate from the specification; the wait-free message-passing
    realization from ``Omega ∧ Sigma`` is
    :class:`repro.substrates.consensus.ConsensusAutomaton`.
    """

    def __init__(self, name: str = "CONS") -> None:
        self.name = name
        self._decision: Optional[Any] = None
        self._decided = False
        self.proposal_count = 0

    def propose(self, value: Any) -> Any:
        """Propose ``value``; returns the (unique) decided value."""
        self.proposal_count += 1
        if not self._decided:
            self._decision = value
            self._decided = True
        return self._decision

    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def decision(self) -> Any:
        if not self._decided:
            raise SpecificationError(f"{self.name}: no decision yet")
        return self._decision

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = repr(self._decision) if self._decided else "?"
        return f"{self.name}={state}"
