"""The quorum guard's memo changes nothing a run can show.

Algorithm 1's actions ask ``MulticastSystem.blocked`` once per operation:
it reads each guard's verdict from a memo kept for one responder set and
one epoch of the detector instants, and asks ``quorum_ok`` only on a
miss.  The sites used to ask ``quorum_ok`` → ``Sigma.query`` at every
check (through the handle's ``mutation_available``, since deleted);
``_oracle.per_check_guards`` binds them back.  Each cell below runs under
both, on the engine and on the async driver: the rows, the charges of the
run record, the per-round ``quorum_queries`` / ``quorum_stalls`` and
wait-reason histograms and the whole-run counters must be equal.

The cells are the parking-memo bases (two and three disjoint groups,
``tests/substrates/test_parking.py``) and Figure 1, whose intersection
logs take the slow path under contention, fault-free and under the
``full``, ``recovery`` and ``detectors`` nemesis mixes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.engine import MulticastSystem
from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.workloads.runner import random_sends, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from tests.substrates.test_parking import BASES as PARKING_BASES

from ._oracle import per_check_guards_everywhere

FIGURE1 = paper_figure1_topology()

BASES = {
    **PARKING_BASES,
    "figure1": (
        TopologySpec.capture(FIGURE1),
        tuple(random_sends(FIGURE1, 16, seed=5, spread_rounds=3)),
    ),
}

BACKENDS = {
    "engine": {},
    "async": {"backend": "async", "delay_model": ("uniform", 0.1, 0.9)},
}

MIXES = (None, "full", "recovery", "detectors")

SEEDS = range(4)


def cell(base, backend, mix, seed):
    topology, sends = BASES[base]
    groups = tuple(name for name, _ in topology.groups)
    spec = ScenarioSpec(
        topology=topology, sends=sends, seed=seed, max_rounds=400, **BACKENDS[backend]
    )
    if mix is None:
        return spec
    plan = random_plan(seed, mix, topology.process_count, groups)
    return replace(spec, faults=plan)


def observed(result):
    tracer = result.tracer
    return (
        result.to_row(),
        list(result.record.charges),
        [
            (r.time, r.quorum_queries, r.quorum_stalls, list(r.wait_reasons.items()))
            for r in tracer.rounds
        ],
        (tracer.quorum_queries, tracer.quorum_stalls),
    )


@pytest.fixture
def asked(monkeypatch):
    """Count ``quorum_ok`` calls: the memo's misses, or every check."""
    calls = [0]
    quorum_ok = MulticastSystem.quorum_ok

    def counted(self, caller, scope):
        calls[0] += 1
        return quorum_ok(self, caller, scope)

    monkeypatch.setattr(MulticastSystem, "quorum_ok", counted)
    return calls


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("base", sorted(BASES))
def test_memo_matches_the_per_check_guard(monkeypatch, asked, base, backend):
    memo_calls = check_calls = slow_ops = 0
    for mix in MIXES:
        for seed in SEEDS:
            spec = cell(base, backend, mix, seed)
            asked[0] = 0
            memoised = run_scenario(spec)
            memo_calls += asked[0]
            stats = memoised.system.space.intersection_log_stats()
            slow_ops += sum(slow for _fast, slow in stats.values())
            with monkeypatch.context() as patch:
                per_check_guards_everywhere(patch)
                asked[0] = 0
                checked = run_scenario(spec)
                check_calls += asked[0]
            assert observed(memoised) == observed(checked), (mix, seed)
    # The memo answered most checks itself.
    assert 2 * memo_calls < check_calls, (memo_calls, check_calls)
    if base == "figure1":
        assert slow_ops > 0
