"""Delay models for the asynchronous driver.

A :class:`DelayModel` answers one question: *how long does the channel
from process ``src`` to process ``dst`` take, in round units?*  The
:class:`repro.runtime.async_driver.AsyncDriver` adds the answer to its
loop clock to place wake deliveries on the event loop, and uses the
self-pair ``(i, i)`` as a process's local scheduling latency between
consecutive steps.

A model is the inverse CDF of one ``rng.random()``:
:meth:`DelayModel.quantile` maps a uniform draw ``u`` in ``[0, 1)`` to a
latency, nondecreasing in ``u``, and :meth:`DelayModel.latency` is that
map at a fresh draw.  Monotonicity is what lets the driver fold a
reader's wakes: the least of ``quantile(u)`` over a batch of draws is
``quantile`` of the least ``u``, bit for bit.  A model whose latency
does not vary sets ``draws = False`` and spends no ``rng.random()``.
``uniform`` and ``exponential`` write the formula out in ``latency``
rather than call ``quantile``, so a pacing or faulted draw opens one
frame; twin tests pin the two forms bit-equal draw by draw.

Models are addressed by *spec* — a flat JSON-able tuple such as
``("uniform", 0.1, 0.9)`` — so a scenario's delay axis lives inside its
:class:`repro.workloads.spec.ScenarioSpec` (schema v5) and hashes with
it.  All randomness flows through the RNG the caller passes (the async
driver derives one from the scenario seed, never touching the schedule
RNG), so a run is byte-replayable from its spec alone.

The three paper-motivated shapes:

* ``uniform`` — homogeneous jittery network (the default);
* ``exponential`` — heavy-tailed latencies, capped so fairness (every
  wake eventually lands) stays trivially true;
* ``slow_pairs`` — adversarial heterogeneity: named directed process
  pairs run a multiple slower than everyone else, the asynchronous
  analogue of the slow-link schedules the necessity argument builds.
"""

from __future__ import annotations

import random
from math import log
from typing import Any, Sequence, Tuple

from repro.model.errors import SimulationError

#: The delay-model kinds a spec may name.
DELAY_MODEL_KINDS = ("fixed", "uniform", "exponential", "slow_pairs")

#: The model used when a spec leaves ``delay_model=None``.
DEFAULT_DELAY_SPEC: Tuple[Any, ...] = ("uniform", 0.1, 0.9)


class DelayModel:
    """Base: a distribution over per-channel latencies (round units),
    given by its inverse CDF."""

    #: Whether a latency spends one ``rng.random()``.
    draws = True

    def quantile(self, src: int, dst: int, u: float) -> float:
        """The ``src -> dst`` latency at the uniform draw ``u`` in
        ``[0, 1)``: >= 0 and nondecreasing in ``u``."""
        raise NotImplementedError

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        """One latency draw for the ``src -> dst`` channel, >= 0."""
        raise NotImplementedError

    def spec(self) -> Tuple[Any, ...]:
        """The canonical spec tuple this model was built from."""
        raise NotImplementedError


class FixedDelay(DelayModel):
    """Every channel takes exactly ``amount`` rounds (degenerate but
    useful for pinning the driver's mechanics in tests)."""

    draws = False

    def __init__(self, amount: float) -> None:
        if amount < 0:
            raise SimulationError("fixed delay must be >= 0")
        self.amount = float(amount)

    def quantile(self, src: int, dst: int, u: float) -> float:
        return self.amount

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        return self.amount

    def spec(self) -> Tuple[Any, ...]:
        return ("fixed", self.amount)


class UniformDelay(DelayModel):
    """Latency ~ Uniform[lo, hi] rounds on every channel.

    The draw is ``rng.uniform(lo, hi)``'s formula, written out so a
    replay depends on ``rng.random()`` alone.
    """

    def __init__(self, lo: float, hi: float) -> None:
        if not (0 <= lo <= hi):
            raise SimulationError(
                f"uniform delay needs 0 <= lo <= hi, got [{lo}, {hi}]"
            )
        self.lo = float(lo)
        self.hi = float(hi)

    def quantile(self, src: int, dst: int, u: float) -> float:
        return self.lo + (self.hi - self.lo) * u

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        return self.lo + (self.hi - self.lo) * rng.random()

    def spec(self) -> Tuple[Any, ...]:
        return ("uniform", self.lo, self.hi)


class ExponentialDelay(DelayModel):
    """Latency ~ min(Exp(mean), cap) rounds: heavy-tailed but bounded.

    The cap keeps the model inside the admissible envelope the round
    world assumes — every wake lands within a known number of rounds,
    so quiescence detection and the fault-plan horizon stay meaningful.

    The draw is ``rng.expovariate(1.0 / mean)``'s formula, written out
    so a replay depends on ``rng.random()`` alone; it
    divides by the rate, since multiplying by ``mean`` is not bit-equal.
    """

    def __init__(self, mean: float, cap: float) -> None:
        if mean <= 0 or cap <= 0:
            raise SimulationError("exponential delay needs mean > 0, cap > 0")
        self.mean = float(mean)
        self.cap = float(cap)
        self._rate = 1.0 / self.mean

    def quantile(self, src: int, dst: int, u: float) -> float:
        draw = -log(1.0 - u) / self._rate
        return draw if draw < self.cap else self.cap

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        draw = -log(1.0 - rng.random()) / self._rate
        return draw if draw < self.cap else self.cap

    def spec(self) -> Tuple[Any, ...]:
        return ("exponential", self.mean, self.cap)


class SlowPairsDelay(DelayModel):
    """Adversarial heterogeneity: named directed pairs run slower.

    Latency is drawn from a base :class:`UniformDelay` and multiplied by
    ``factor`` when ``(src, dst)`` is one of the slow pairs (process
    indices, directional).  Self-pairs model a slow *process* rather
    than a slow link.
    """

    def __init__(
        self,
        factor: float,
        pairs: Sequence[Tuple[int, int]],
        lo: float = 0.1,
        hi: float = 0.9,
    ) -> None:
        if factor < 1:
            raise SimulationError("slow_pairs factor must be >= 1")
        self.factor = float(factor)
        self.pairs = frozenset(
            (int(src), int(dst)) for src, dst in pairs
        )
        if not self.pairs:
            raise SimulationError("slow_pairs needs at least one pair")
        self._base = UniformDelay(lo, hi)

    def quantile(self, src: int, dst: int, u: float) -> float:
        base = self._base.quantile(src, dst, u)
        if (src, dst) in self.pairs:
            return base * self.factor
        return base

    def latency(self, src: int, dst: int, rng: random.Random) -> float:
        return self.quantile(src, dst, rng.random())

    def spec(self) -> Tuple[Any, ...]:
        return (
            "slow_pairs",
            self.factor,
            tuple(sorted(self.pairs)),
            self._base.lo,
            self._base.hi,
        )


def canonical_delay_spec(spec: Any) -> Tuple[Any, ...]:
    """Validate and canonicalize a delay spec (lists -> tuples).

    JSON round trips turn tuples into lists; canonicalization makes the
    spec hashable and byte-stable, and building the model validates the
    parameters eagerly so a bad spec fails at capture time, not inside
    the event loop.
    """
    model = build_delay_model(spec)
    return model.spec()


def build_delay_model(spec: Any) -> DelayModel:
    """Instantiate the model a spec tuple names (``None`` -> default)."""
    if spec is None:
        spec = DEFAULT_DELAY_SPEC
    if isinstance(spec, DelayModel):
        return spec
    try:
        kind, params = spec[0], tuple(spec[1:])
    except (TypeError, IndexError):
        raise SimulationError(f"malformed delay spec {spec!r}")
    if kind == "fixed":
        (amount,) = params
        return FixedDelay(float(amount))
    if kind == "uniform":
        lo, hi = params
        return UniformDelay(float(lo), float(hi))
    if kind == "exponential":
        mean, cap = params
        return ExponentialDelay(float(mean), float(cap))
    if kind == "slow_pairs":
        if len(params) == 2:
            factor, pairs = params
            lo, hi = 0.1, 0.9
        else:
            factor, pairs, lo, hi = params
        return SlowPairsDelay(
            float(factor),
            [(int(s), int(d)) for s, d in pairs],
            float(lo),
            float(hi),
        )
    raise SimulationError(
        f"unknown delay model {kind!r}; expected one of {DELAY_MODEL_KINDS}"
    )


def parse_delay_model(text: str) -> Tuple[Any, ...]:
    """Parse a CLI-style delay spec: ``kind[:param[:param...]]``.

    Examples: ``uniform:0.1:0.9``, ``exponential:1.0:8``, ``fixed:0.5``,
    ``slow_pairs:4:1-2,2-1``.  A bare kind uses that model's defaults.
    """
    parts = text.split(":")
    kind = parts[0]
    args = parts[1:]
    if kind == "fixed":
        return canonical_delay_spec(("fixed", float(args[0]) if args else 0.5))
    if kind == "uniform":
        lo = float(args[0]) if args else 0.1
        hi = float(args[1]) if len(args) > 1 else 0.9
        return canonical_delay_spec(("uniform", lo, hi))
    if kind == "exponential":
        mean = float(args[0]) if args else 0.5
        cap = float(args[1]) if len(args) > 1 else 8.0
        return canonical_delay_spec(("exponential", mean, cap))
    if kind == "slow_pairs":
        factor = float(args[0]) if args else 4.0
        pairs = []
        if len(args) > 1 and args[1]:
            for chunk in args[1].split(","):
                src, _, dst = chunk.partition("-")
                pairs.append((int(src), int(dst)))
        if not pairs:
            pairs = [(1, 2), (2, 1)]
        return canonical_delay_spec(("slow_pairs", factor, tuple(pairs)))
    raise SimulationError(
        f"unknown delay model {kind!r}; expected one of {DELAY_MODEL_KINDS}"
    )


__all__ = [
    "DEFAULT_DELAY_SPEC",
    "DELAY_MODEL_KINDS",
    "DelayModel",
    "ExponentialDelay",
    "FixedDelay",
    "SlowPairsDelay",
    "UniformDelay",
    "build_delay_model",
    "canonical_delay_spec",
    "parse_delay_model",
]
