"""What batching won on the kernel backend, pinned where tier-1 sees it.

The ``kernel-wide`` arrival script of ``benchmarks/e2e/workloads.py`` —
every group is offered a multicast every 3 rounds, open loop, 25 waves,
sender ``min(group)`` — on 8 disjoint groups of 5 instead of 40.  A
failure-free slot takes about 7 rounds, so one value a slot serves 43 %
of the arrival rate and a message waits behind its predecessors (median
request -> delivery latency about 50 rounds, 25 slots a group, 179
rounds); a slot that carries the leader's whole queue keeps up.  Since
PR 23 a slot is 12 datagrams and about 5 rounds, so the same arrivals
take more, smaller slots and wait 8 rounds instead of 10.

Every number below is simulated, exact and repeats at its seed: a pin,
not a threshold on wall time.  Re-record only for a deliberate protocol
change (DESIGN.md §13 policy (2)).
"""

from __future__ import annotations

import statistics

import pytest

from repro.metrics import latency_of
from repro.workloads import ScenarioSpec, Send, run_scenario
from repro.workloads.spec import TopologySpec

GROUPS, GROUP_SIZE, WAVES = 8, 5, 25
TOPOLOGY = TopologySpec.from_generator(
    {"kind": "disjoint", "k": GROUPS, "group_size": GROUP_SIZE}
)
LEADERS = [(g - 1) * GROUP_SIZE + 1 for g in range(1, GROUPS + 1)]
SENDS = tuple(
    Send(sender=leader, group=f"g{g}", at_round=wave * 3)
    for wave in range(WAVES)
    for g, leader in enumerate(LEADERS, start=1)
)

#: seed -> (rounds, datagrams, slots per group, median latency in rounds)
PINS = {
    0: (84, 1524, [16, 16, 15, 16, 16, 16, 16, 16], 8),
    1: (84, 1512, [16, 15, 16, 16, 16, 15, 16, 16], 8),
    2: (84, 1512, [16, 16, 16, 16, 15, 15, 16, 16], 8),
}


@pytest.mark.parametrize("seed", sorted(PINS))
def test_open_loop_arrivals_are_served_in_batches(seed):
    spec = ScenarioSpec(
        topology=TOPOLOGY, sends=SENDS, seed=seed, max_rounds=6000, backend="kernel"
    )
    result = run_scenario(spec)
    assert result.delivered_everywhere()
    verdicts = result.verdicts()
    assert verdicts["ordering"] == 0 and verdicts["integrity"] == 0
    logs = {p.index: log for p, log in result.kernel.automata.items()}
    slots = [len(logs[leader].snapshot()["batches"]) for leader in LEADERS]
    latency = statistics.median(latency_of(result.record, m) for m in result.messages)
    assert latency <= 8
    assert (result.rounds, result.kernel.total_messages(), slots, latency) == PINS[seed]
    # 12 datagrams a slot since PR 23 (it was 24 while every learner
    # relayed DECIDE): ACCEPT, ACCEPTED and DECIDE, four of each.
    assert result.kernel.total_messages() == 12 * sum(slots)
