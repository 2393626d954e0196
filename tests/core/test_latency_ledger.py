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

The action scan runs to its own fixpoint: a visit that raises a
message's phase revisits, in the same scan, the messages whose order
wait stopped at it.  The ledger counts those revisits and the phase
moves they make.  The Prop 1 helper (``AtomicMulticast._reduction_actions``)
counts only the pushes that appended to ``LOG_g``; the ledger counts the
pushes that appended nothing too, and the scans.  Those three counts
follow the schedule, so ``tests/runtime/generate_golden.py`` writes them
into ``golden.json`` (``latency_ledger``, :func:`push_pins`).
"""

from __future__ import annotations

import statistics
from collections import Counter

import pytest

from repro.core.algorithm1 import Algorithm1Process
from repro.core.group_sequential import AtomicMulticast
from repro.core.phases import START
from repro.groups.topology import paper_figure1_topology
from repro.metrics.summary import latency_of
from repro.props.checkers import assert_run_ok
from repro.workloads import runner
from repro.workloads.runner import open_loop_sends
from repro.workloads.spec import ScenarioSpec, TopologySpec
from tests.runtime._scenarios import load_golden

MULTICASTS = 480

FIGURE1 = paper_figure1_topology()

#: The ledger's cell (``tests/core/test_scan_fixpoint.py`` runs it too).
CELL = ScenarioSpec(
    topology=TopologySpec.capture(FIGURE1),
    sends=open_loop_sends(FIGURE1, MULTICASTS),
    seed=0,
    max_rounds=4 * (MULTICASTS // 2) + 400,
)

#: The action bodies a visit of the scan calls, in chain order.
ACTIONS = ("_try_pending", "_try_commit", "_try_stabilize", "_try_stable", "_try_deliver")


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


def measure():
    """Run :data:`CELL` under the ledger's wrappers and return its ledger."""
    spec = CELL
    hosts = []

    def build(*args):
        deployment = runner._algorithm1_deployment(*args)
        hosts.append(deployment.host)
        return deployment

    first_push = {}
    real = Algorithm1Process.multicast
    helper = AtomicMulticast._reduction_actions
    scan = Algorithm1Process.try_actions
    #: Every line-7 push by the helper and whether it appended; what the
    #: helper counted; the scans; per scan, the ids of its visits in
    #: order, and each visit's phase before and after.
    pushes = Counter()
    visits = []

    def noting(process, message):
        first_push.setdefault(message.mid, hosts[0].time)
        appended = real(process, message)
        pushes["pushes"] += 1
        pushes["idle"] += not appended
        return appended

    def helping(multicaster, pid, t):
        counted = helper(multicaster, pid, t)
        pushes["counted"] += counted
        return counted

    def scanning(process, t, budget=None):
        pushes["scans"] += 1
        visits.append([])
        return scan(process, t, budget=budget)

    def visiting(action):
        def visit(process, t, m, *args):
            scan_visits = visits[-1]
            if not scan_visits or scan_visits[-1][0] != m.mid:
                scan_visits.append([m.mid, process.phase.get(m.mid, START), None])
            out = action(process, t, m, *args)
            scan_visits[-1][2] = process.phase.get(m.mid, START)
            return out

        return visit

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Algorithm1Process, "multicast", noting)
        patch.setattr(AtomicMulticast, "_reduction_actions", helping)
        patch.setattr(Algorithm1Process, "try_actions", scanning)
        for name in ACTIONS:
            patch.setattr(
                Algorithm1Process, name, visiting(getattr(Algorithm1Process, name))
            )
        result = runner.run_deployment(spec, build)
    assert_run_ok(result.record)
    assert not result.truncated
    record = result.record
    queue, service, latency = [], [], []
    for m in result.messages:
        waited = first_push[m.mid] - record.multicast_time(m)
        queue.append(waited)
        latency.append(latency_of(record, m))
        service.append(latency[-1] - waited)
    deliveries = len(record.deliveries)
    revisits = Counter()
    for scan_visits in visits:
        seen = set()
        for mid, before, after in scan_visits:
            if mid in seen:
                revisits["revisits"] += 1
                if after != before:
                    revisits[f"{before.name.lower()}→{after.name.lower()}"] += 1
            seen.add(mid)
    steps = Counter()
    for _t, payers, reason in record.charges:
        steps[charge_kind(reason)] += len(payers)
    return {
        "messages": len(result.messages),
        "deliveries": deliveries,
        "queue": statistics.median(queue),
        "service": statistics.median(service),
        "latency": statistics.median(latency),
        "means": tuple(round(statistics.mean(x), 3) for x in (queue, service, latency)),
        "steps": steps,
        "pushes": dict(pushes),
        "revisits": dict(revisits),
    }


def push_pins(ledger):
    """The helper's pushes, its idle pushes and the scans of ``ledger``:
    the ``latency_ledger`` section of ``golden.json``."""
    return {key: ledger["pushes"][key] for key in ("pushes", "idle", "scans")}


@pytest.fixture(scope="module")
def ledger():
    return measure()


def test_every_message_is_delivered_everywhere(ledger):
    assert (ledger["messages"], ledger["deliveries"]) == (MULTICASTS, 1200)


def test_the_latency_splits_into_queue_and_service(ledger):
    # The old step order read queue 75, service 3, latency 77.5: the
    # push of L_g[i+1] waited a round behind the delivery of L_g[i].
    assert (ledger["queue"], ledger["service"], ledger["latency"]) == (1, 2, 4)
    # Before the scan revisited its order waits, the means read 1.902,
    # 2.377 and 4.279.
    assert ledger["means"] == (1.623, 2.263, 3.885)


def test_steps_per_delivery_by_charge_reason(ledger):
    # Before line 7 took ``m ∉ LOG_g`` into its precondition, 133 pushes
    # appended a message already in LOG_g: "LOG_g.append" read 18 262 and
    # the total 24.76 a delivery.  Before the scan revisited its order
    # waits, "LOG_g.append" read 17 892 and the total 24.45.
    assert dict(ledger["steps"]) == {
        "L_g.append": 1200,
        "LOG_g.append": 17826,
        "LOG_g.bumpAndLock": 3120,
        "LOG_g∩h.append[fast]": 1756,
        "LOG_g∩h.append[slow]": 246,
        "LOG_g∩h.bumpAndLock[fast]": 1708,
        "LOG_g∩h.bumpAndLock[slow]": 318,
        "CONS.propose": 3120,
    }
    total = sum(ledger["steps"].values())
    assert round(total / ledger["deliveries"], 2) == 24.41


def test_helper_pushes_that_append_nothing_and_the_scans_they_buy(ledger):
    # Some of the helper's pushes find the message already in LOG_g (or
    # past start) and count for nothing, so they buy no scan: the helper
    # counts its 480 appends, one a message.  Before, it counted all
    # 1 192 of its pushes.  In 421 helper passes every counted push
    # appended nothing, and each bought the fire one more scan; 259 of
    # those scans fired an action.  What they fired were order waits
    # whose blocker a later visit of the previous scan had advanced —
    # within one fire no other process acts, so no unread entry of
    # another member was there to read.  The scan now revisits those
    # waits itself (``test_the_scan_revisits_the_order_waits_it_ends``),
    # and the cell takes fewer scans than the 2 000 it took before.
    pushes = ledger["pushes"]
    assert pushes["counted"] == MULTICASTS
    assert pushes["idle"] > 0
    assert pushes["pushes"] == pushes["counted"] + pushes["idle"]
    assert push_pins(ledger) == load_golden()["latency_ledger"]


def test_the_scan_revisits_the_order_waits_it_ends(ledger):
    # A revisit is a second visit of one id in one scan: its order wait
    # stopped at an entry whose phase a later visit raised.  Most end a
    # line-36 wait (commit → deliver, stable → deliver); without them
    # each of those deliveries waited for the process's next scan.
    assert ledger["revisits"] == {
        "revisits": 651,
        "commit→deliver": 200,
        "stable→deliver": 58,
        "start→pending": 7,
        "start→commit": 4,
        "commit→stable": 1,
    }
