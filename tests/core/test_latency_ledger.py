"""Algorithm 1's latency ledger on the ``engine-longlog`` cell shape.

Figure 1, 480 open-loop multicasts (two a round, round-robin over the
groups and their members), schedule seed 0, on the engine, built from
``src/`` alone.  Each message's latency (multicast to last correct
delivery, :func:`repro.metrics.summary.latency_of`) splits in two:

* *queue* — from the multicast (the ``L_g`` append) to the first line-7
  push of the message into ``LOG_g`` by any member
  (``Algorithm1Process.multicast``, noted by a test-only wrapper);
* *service* — from that push to the last delivery.

Steps are listed per delivery by charge reason (``RunRecord.charges``),
with the object's name folded to its kind: ``L_g``, ``LOG_g``,
``LOG_g∩h`` and ``CONS``.  EXPERIMENTS.md "Algorithm 1's latency
ledger" has the table, with the row of the step order before the Prop 1
helper and the scan took turns within one step (queue 75, service 3,
25.55 steps a delivery).

The Prop 1 helper (``AtomicMulticast._reduction_actions``) counts a push
as fired even when line 7 appended nothing, and such a count keeps
``SharedObjectActor.fire``'s helper–scan turns going for one more scan.
The ledger counts those pushes, the scans they buy and how many of
those scans fire an action anyway.
"""

from __future__ import annotations

import statistics
from collections import Counter

import pytest

from repro.core.algorithm1 import Algorithm1Process
from repro.core.group_sequential import AtomicMulticast
from repro.groups.topology import paper_figure1_topology
from repro.metrics.summary import latency_of
from repro.runtime.actors import SharedObjectActor
from repro.workloads import runner
from repro.workloads.runner import open_loop_sends
from repro.workloads.spec import ScenarioSpec, TopologySpec

MULTICASTS = 480


def charge_kind(reason: str) -> str:
    """``LOG_g1∩g3.append[fast]`` → ``LOG_g∩h.append[fast]``."""
    name, op = reason.rsplit(".", 1)
    if name.startswith("CONS"):
        kind = "CONS"
    elif name.startswith("L_"):
        kind = "L_g"
    elif "∩" in name:
        kind = "LOG_g∩h"
    else:
        kind = "LOG_g"
    return f"{kind}.{op}"


@pytest.fixture(scope="module")
def ledger():
    topology = paper_figure1_topology()
    spec = ScenarioSpec(
        topology=TopologySpec.capture(topology),
        sends=open_loop_sends(topology, MULTICASTS),
        seed=0,
        max_rounds=4 * (MULTICASTS // 2) + 400,
    )
    hosts = []

    def build(*args):
        deployment = runner._algorithm1_deployment(*args)
        hosts.append(deployment.host)
        return deployment

    first_push = {}
    real = Algorithm1Process.multicast
    push, helper = Algorithm1Process._push, AtomicMulticast._reduction_actions
    scan, fire = Algorithm1Process.try_actions, SharedObjectActor.fire
    #: Every line-7 push's outcome; per process, whether its last helper
    #: pass counted pushes that all appended nothing, and the scans of
    #: its current fire.
    appended, idle_pass, scans = [], {}, Counter()
    pushes = Counter()

    def noting(process, message):
        first_push.setdefault(message.mid, hosts[0].time)
        before = len(appended)
        real(process, message)
        pushes["pushes"] += 1
        pushes["idle"] += not appended[before]

    def pushing(process, message, route):
        appended.append(push(process, message, route))
        return appended[-1]

    def helping(multicaster, pid, t):
        idle_before, counted = pushes["idle"], helper(multicaster, pid, t)
        idle_pass[pid] = counted > 0 and pushes["idle"] - idle_before == counted
        return counted

    def scanning(process, t, budget=None):
        fired = scan(process, t, budget=budget)
        if scans[process.pid] and idle_pass[process.pid]:
            pushes["followup_scans"] += 1
            pushes["productive_followups"] += fired > 0
        scans[process.pid] += 1
        return fired

    def firing(actor, t, budget=None, parked=None):
        scans[actor._pid] = 0
        return fire(actor, t, budget, parked)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Algorithm1Process, "multicast", noting)
        patch.setattr(Algorithm1Process, "_push", pushing)
        patch.setattr(AtomicMulticast, "_reduction_actions", helping)
        patch.setattr(Algorithm1Process, "try_actions", scanning)
        patch.setattr(SharedObjectActor, "fire", firing)
        result = runner.run_deployment(spec, build)
    result.assert_ok()
    record = result.record
    queue, service, latency = [], [], []
    for m in result.messages:
        waited = first_push[m.mid] - record.multicast_time(m)
        queue.append(waited)
        latency.append(latency_of(record, m))
        service.append(latency[-1] - waited)
    deliveries = len(record.deliveries)
    steps = Counter()
    for _t, payers, reason in record.charges:
        steps[charge_kind(reason)] += len(payers)
    return {
        "messages": len(result.messages),
        "deliveries": deliveries,
        "queue": statistics.median(queue),
        "service": statistics.median(service),
        "latency": statistics.median(latency),
        "steps": steps,
        "pushes": dict(pushes),
    }


def test_every_message_is_delivered_everywhere(ledger):
    assert (ledger["messages"], ledger["deliveries"]) == (MULTICASTS, 1200)


def test_the_latency_splits_into_queue_and_service(ledger):
    # The old step order read queue 75, service 3, latency 77.5: the
    # push of L_g[i+1] waited a round behind the delivery of L_g[i].
    assert (ledger["queue"], ledger["service"], ledger["latency"]) == (1, 2, 4)


def test_steps_per_delivery_by_charge_reason(ledger):
    # Before line 7 took ``m ∉ LOG_g`` into its precondition, 133 pushes
    # appended a message already in LOG_g: "LOG_g.append" read 18 262 and
    # the total 24.76 a delivery.
    assert dict(ledger["steps"]) == {
        "L_g.append": 1200,
        "LOG_g.append": 17892,
        "LOG_g.bumpAndLock": 3120,
        "LOG_g∩h.append[fast]": 1742,
        "LOG_g∩h.append[slow]": 267,
        "LOG_g∩h.bumpAndLock[fast]": 1756,
        "LOG_g∩h.bumpAndLock[slow]": 246,
        "CONS.propose": 3120,
    }
    total = sum(ledger["steps"].values())
    assert round(total / ledger["deliveries"], 2) == 24.45


def test_helper_pushes_that_append_nothing_and_the_scans_they_buy(ledger):
    # 712 of the helper's 1 192 pushes find the message already in LOG_g
    # (or past start) and still count as fired.  In 421 helper passes
    # every counted push was such a push, so the fire took one more
    # scan; 259 of those scans fired an action (``discover()`` read an
    # entry another member appended), 162 fired none.
    assert ledger["pushes"] == {
        "pushes": 1192,
        "idle": 712,
        "followup_scans": 421,
        "productive_followups": 259,
    }
