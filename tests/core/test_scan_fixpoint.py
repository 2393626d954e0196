"""An unbudgeted step leaves its process at the fixpoint of its actions.

Algorithm 1's actions are local to one process, and an order wait (lines
10/28/36) clears only when a predecessor's ``PHASE`` rises, so one step
can run every action its own effects enable.
``Algorithm1Process.try_actions`` does: a visit that raises a message's
phase revisits the messages whose order wait stopped at it.  So after
every unbudgeted ``SharedObjectActor.fire`` a further scan at the same
instant fires nothing.  That is checked here on the latency ledger's
cell and on a Hypothesis sample of ``random_topology`` cells, on the
engine and on the async driver.

Because the fire ends at the fixpoint, the Prop 1 helper counts only its
appends and the fire parks its process whatever it fired.  On the engine
neither changes a record: under ``_oracle.idle_counting_everywhere``
(every push counted, a fire that fired anything left unparked) the same
cells charge the same steps and deliver the same messages at the same
rounds, at the price of more scans.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.algorithm1 import Algorithm1Process
from repro.props.checkers import assert_run_ok
from repro.runtime.actors import SharedObjectActor
from repro.workloads.runner import open_loop_sends, random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import random_topology

from ._oracle import idle_counting_everywhere
from .test_latency_ledger import CELL as LEDGER_CELL, FIGURE1

BACKENDS = {
    "engine": {},
    "async": {"backend": "async", "delay_model": ("exponential", 1.0, 8.0)},
}


def rescans(spec):
    """Run ``spec``, scanning each process again after every unbudgeted
    fire, at the same instant; return what those scans fired, and the
    result."""
    fire = SharedObjectActor.fire
    fired_again = []

    def checked(actor, t, budget=None, parked=None):
        fired = fire(actor, t, budget, parked)
        if budget is None:
            fired_again.append(actor._process.try_actions(t))
        return fired

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SharedObjectActor, "fire", checked)
        result = run_scenario(spec)
    assert_run_ok(result.record)
    assert not result.truncated
    return fired_again, result


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_fire_ends_at_its_process_fixpoint_on_the_ledger_cell(backend):
    fired_again, result = rescans(replace(LEDGER_CELL, **BACKENDS[backend]))
    assert result.delivered_everywhere()
    assert len(fired_again) > 1000
    assert sum(fired_again) == 0


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    topo_seed=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=10**6),
    send_count=st.integers(min_value=1, max_value=16),
    backend=st.sampled_from(sorted(BACKENDS)),
)
def test_a_fire_ends_at_its_process_fixpoint_on_random_topologies(
    topo_seed, seed, send_count, backend
):
    topology = random_topology(topo_seed)
    spec = ScenarioSpec(
        topology=TopologySpec.capture(topology),
        sends=tuple(random_sends(topology, send_count, seed=seed, spread_rounds=2)),
        seed=seed,
        max_rounds=400,
        **BACKENDS[backend],
    )
    fired_again, _result = rescans(spec)
    assert fired_again and sum(fired_again) == 0


@pytest.mark.parametrize("seed", range(3))
def test_the_retired_fire_accounting_moves_no_engine_record(monkeypatch, seed):
    spec = replace(
        LEDGER_CELL, sends=open_loop_sends(FIGURE1, 120), seed=seed, max_rounds=400
    )
    scans = [0]
    scan = Algorithm1Process.try_actions

    def counted(self, t, budget=None):
        scans[0] += 1
        return scan(self, t, budget=budget)

    monkeypatch.setattr(Algorithm1Process, "try_actions", counted)
    result = run_scenario(spec)
    exact = scans[0]
    with monkeypatch.context() as patch:
        idle_counting_everywhere(patch)
        scans[0] = 0
        retired = run_scenario(spec)
    assert result.record.charges == retired.record.charges
    assert result.record.deliveries == retired.record.deliveries
    assert result.to_row()["rounds"] == retired.to_row()["rounds"]
    assert exact < scans[0]
