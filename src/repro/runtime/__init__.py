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
