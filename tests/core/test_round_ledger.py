"""What the kernel's round loop asks of its actors, per delivery.

A kernel round skips a parked automaton; the question is how often it
has to *ask* (``AutomatonActor.parked``) to find out.  The scheduler
memoises a verdict of parked until an event voids it, so most parked
processes are skipped with one set lookup.  The count below is of
``parked`` evaluations on the seed-0 ``kernel-wide`` cell of
``benchmarks/e2e/workloads.py`` (200 processes in 40 disjoint groups of
5, one multicast per group every 3 rounds for 25 waves).  It is a call
count, simulated and exact, so it reads the same on every interpreter.
"""

from repro.runtime.actors import AutomatonActor
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec

GROUPS, GROUP_SIZE, WAVES = 40, 5, 25

#: ``parked`` evaluations per delivery on :func:`kernel_wide_cell`: the
#: measured 2.2782 plus 10 %.
PARKED_PER_DELIVERY_CEILING = 2.506


def kernel_wide_cell(seed=0):
    """The ``kernel-wide`` benchmark cell at ``seed``."""
    return ScenarioSpec(
        topology=TopologySpec.from_generator(
            {"kind": "disjoint", "k": GROUPS, "group_size": GROUP_SIZE}
        ),
        sends=tuple(
            Send(sender=(g - 1) * GROUP_SIZE + 1, group=f"g{g}", at_round=wave * 3)
            for wave in range(WAVES)
            for g in range(1, GROUPS + 1)
        ),
        seed=seed,
        max_rounds=6000,
        backend="kernel",
    )


def test_parked_evaluations_per_delivery(monkeypatch):
    """Before the memo every actor of every non-full-scan round was
    asked: 16 800 evaluations for 5 000 deliveries (3.36 a delivery),
    5 409 of them re-confirming a verdict no event could have changed.
    With it the cell reads 11 391 (2.28)."""
    asked = {"parked": 0}
    parked = AutomatonActor.parked

    def counted(self, t):
        asked["parked"] += 1
        return parked(self, t)

    monkeypatch.setattr(AutomatonActor, "parked", counted)
    result = run_scenario(kernel_wide_cell())
    kernel = result.kernel
    deliveries = len(result.record.deliveries)
    # The cell is the benchmark's: its step and datagram ledger.
    assert (deliveries, sum(kernel.steps_taken.values()), kernel.total_messages()) == (
        5000,
        8263,
        7536,
    )
    assert asked["parked"] / deliveries <= PARKED_PER_DELIVERY_CEILING, asked
