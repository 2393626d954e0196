"""repro.runtime — the shared execution loop of every scenario family.

One :class:`ExecutionCore` owns the transport/clock-agnostic semantics
(actor registry, alive ∩ participation filtering, settle-horizon and
quiescence accounting, tracer/injector hooks); two drivers execute it:
the round-based :class:`Scheduler` (the lockstep loop with the seeded
shuffle) and the :class:`AsyncDriver` (generator tasks over
latency-modelled in-memory channels, on its own event loop whose
virtual clock makes a run replay deterministically).  Hosts subclass
:class:`RoundHost` and adapt their execution units to the :class:`Actor`
protocol via the adapters in :mod:`repro.runtime.actors`.
"""

from repro.runtime.actors import (
    AutomatonActor,
    RoundHost,
    SharedObjectActor,
    SystemActor,
)
from repro.runtime.async_driver import CLOCK_MODES, AsyncDriver, AsyncTransport
from repro.runtime.core import ExecutionCore
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
    "CLOCK_MODES",
    "DELAY_MODEL_KINDS",
    "DelayModel",
    "ExecutionCore",
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
