"""Pinned regression: the ROADMAP item 6 termination gap.

``random_topology(42)`` (g1={1,2,3,6}, g2={2,4}, g3={2,5,6,7},
g4={1,7}) with p1 crashed at t=0 makes g1∩g4={p1} wholly faulty from
the start, so the run exercises the γ/faulty-family escape hatch.
Under the pre-fix per-process gamma scoping, members of g3 that carry
no intersection of the live family {g1,g2,g3} (p5, and p7 whose
families are all faulty) saw an *empty* partner set, committed early,
and decided a stale consensus position — locking messages at
inconsistent positions across the intersection logs.  The resulting
order cycle (LOG_g1∩g2: p2#1 < p2#2, LOG_g2∩g3: p2#2 < p5#1,
LOG_g1∩g3: p5#1 < p2#1) blocked stabilize at p2/p6 forever while the
run quiesced, violating Termination.

The fix scopes ``gamma(g)`` partner sets and the ``CONS_{m,f}`` family
key to the *group* — ``Mu.gamma_partners(t, g)`` and
``Algorithm1Process._consensus_family``, the only scoping ``src/`` has:
every member of ``g`` gates commit on the same live-family partners and
proposes to the same consensus instance, so the decided position
dominates every append.  The per-process derivation lives on as
``tests/runtime/_oracle.py::process_scoped`` (the golden fixtures replay
their frozen traces under it); bound over this run it is the negative
control — the gap is still there to be reproduced.

Falsifying example: seed=365019, topo_seed=42, send_count=10,
crash_indices={0}, crash_time=0 (found by
``test_random_runs.py::test_random_topology_runs_satisfy_all_properties``).
"""

from repro.model import crash_pattern, pset
from repro.props import assert_run_ok, check_integrity, check_termination
from repro.workloads import (
    ScenarioSpec,
    random_sends,
    random_topology,
    run_scenario,
)
from tests.runtime._oracle import process_scoped_everywhere, scan_everywhere


def _falsifying_spec(**overrides):
    topology = random_topology(42)
    procs = sorted(topology.processes)
    pattern = crash_pattern(pset(procs), {procs[0]: 0})
    sends = random_sends(topology, 10, seed=365019)
    return ScenarioSpec.capture(
        topology, pattern, sends, seed=365019, **overrides
    )


def test_wholly_crashed_intersection_terminates():
    """The falsifying example now delivers everywhere and quiesces."""
    result = run_scenario(_falsifying_spec())
    assert result.quiescent
    assert_run_ok(result.record)


def test_wholly_crashed_intersection_terminates_scan_mode(monkeypatch):
    """The fix is not an artifact of event-driven scheduling."""
    scan_everywhere(monkeypatch)
    result = run_scenario(_falsifying_spec())
    assert result.quiescent
    assert_run_ok(result.record)


def test_group_scope_consensus_instances_are_shared():
    """All committers of one message reach one CONS_{m,f} instance.

    Under the pre-fix scoping this run minted *two* consensus objects
    per contended message (one keyed by the full family closure, one by
    a non-carrier's empty key); group scoping must collapse them.
    """
    result = run_scenario(_falsifying_spec())
    space = result.system.space
    seen = {}
    for (message_key, family_key) in space._consensus:
        seen.setdefault(message_key, []).append(family_key)
    duplicates = {
        mid: keys for mid, keys in seen.items() if len(keys) > 1
    }
    assert not duplicates, (
        "messages with more than one consensus instance: %r" % duplicates
    )


def test_process_scoping_still_reproduces_the_gap(monkeypatch):
    """Negative control: under the ``F(p)`` oracle the same run quiesces
    with Termination violated and private consensus instances — so the
    three tests above pass because of the scoping, not because the
    falsifying example stopped exercising it."""
    process_scoped_everywhere(monkeypatch)
    result = run_scenario(_falsifying_spec())
    assert result.quiescent
    assert len(check_termination(result.record)) == 4
    assert check_integrity(result.record) == []
    minted = [message_key for message_key, _family in result.system.space._consensus]
    assert len(minted) > len(set(minted)), "every message kept to one CONS instance"
