"""repro.runtime — the shared execution loop of every scenario family.

One :class:`Scheduler` holds a run: its failure pattern, its seeded
schedule, its actors, and the eligibility, responder and quiescence
accounting over them.  Its clock advances in one of two ways: its own
lockstep :meth:`Scheduler.round` (one seeded shuffle per round), or the
:class:`AsyncDriver` (generator tasks over latency-modelled in-memory
channels, on its own event loop whose round-unit clock makes a run
replay deterministically).  Hosts subclass :class:`RoundHost` and adapt
their execution units to the :class:`Actor` protocol via the adapters
in :mod:`repro.runtime.actors`.
"""

from repro.runtime.actors import (
    AutomatonActor,
    RoundHost,
    SharedObjectActor,
    SystemActor,
)
from repro.runtime.async_driver import AsyncDriver, AsyncTransport
from repro.runtime.delay import (
    DELAY_MODEL_KINDS,
    DelayModel,
    ExponentialDelay,
    FixedDelay,
    SlowPairsDelay,
    UniformDelay,
    build_delay_model,
    canonical_delay_spec,
    parse_delay_model,
)
from repro.runtime.scheduler import Actor, RunOutcome, Scheduler

__all__ = [
    "Actor",
    "AsyncDriver",
    "AsyncTransport",
    "AutomatonActor",
    "DELAY_MODEL_KINDS",
    "DelayModel",
    "ExponentialDelay",
    "FixedDelay",
    "RoundHost",
    "RunOutcome",
    "Scheduler",
    "SharedObjectActor",
    "SlowPairsDelay",
    "SystemActor",
    "UniformDelay",
    "build_delay_model",
    "canonical_delay_spec",
    "parse_delay_model",
]
