"""Cross-commit row pins for the ``run_scenario`` pipeline.

The differential suites compare the backends with each other; these pins
compare this commit with the last one.  Each entry is the sha256 of the
row minus its address (``spec`` and ``spec_hash``, which
``tests/campaign/test_spec.py`` pins), so a spec schema bump leaves the
pins alone — a runner refactor that moves any delivery, round count,
trace counter, verdict or send-accounting field of these rows fails
here, under ``pytest -x -q``.

A pin that must move (a deliberate protocol or row-schema change) is
re-recorded with ``PYTHONPATH=src python tests/workloads/test_pipeline_rows.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.nemesis import random_plan
from repro.groups.topology import paper_figure1_topology
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from repro.workloads.topologies import disjoint_topology

FIGURE1 = TopologySpec.capture(paper_figure1_topology())
FIGURE1_GROUPS = ("g1", "g2", "g3", "g4")
FIGURE1_SENDS = (
    Send(1, "g1", 0),
    Send(2, "g2", 1),
    Send(1, "g3", 2),
    Send(4, "g4", 3),
    Send(3, "g2", 3),
    Send(5, "g4", 6),
)
DISJOINT = TopologySpec.capture(disjoint_topology(3, group_size=3))
DISJOINT_GROUPS = ("g1", "g2", "g3")
DISJOINT_SENDS = (
    Send(1, "g1", 0),
    Send(4, "g2", 0),
    Send(7, "g3", 1),
    Send(2, "g1", 1),
    Send(5, "g2", 4),
)


def _figure1(**fields) -> ScenarioSpec:
    return ScenarioSpec(
        topology=FIGURE1, sends=FIGURE1_SENDS, max_rounds=400, **fields
    )


def _disjoint(**fields) -> ScenarioSpec:
    return ScenarioSpec(
        topology=DISJOINT, sends=DISJOINT_SENDS, max_rounds=400, **fields
    )


SPECS = {
    "figure1-engine-crash": _figure1(seed=5, crashes=((4, 2),)),
    # The default kernel spec ("event": the kernel skips idle automata).
    "disjoint-kernel-event": _disjoint(
        seed=3, backend="kernel", crashes=((3, 5),)
    ),
    "figure1-async-uniform": _figure1(
        seed=11, backend="async", delay_model=("uniform", 0.1, 0.9)
    ),
    "figure1-engine-faulted": _figure1(
        seed=2, faults=random_plan(2, "full", 5, FIGURE1_GROUPS)
    ),
    "disjoint-kernel-faulted": _disjoint(
        seed=4,
        backend="kernel",
        faults=random_plan(4, "links", 9, DISJOINT_GROUPS),
    ),
    "figure1-async-faulted": _figure1(
        seed=6,
        backend="async",
        faults=random_plan(6, "detectors", 5, FIGURE1_GROUPS),
    ),
    # All three detector kinds on the kernel: the group samplers run over
    # the perturbed ``Sigma_g`` / ``Omega_g`` components.
    "disjoint-kernel-detectors": _disjoint(
        seed=3,
        backend="kernel",
        faults=random_plan(3, "detectors", 9, DISJOINT_GROUPS),
    ),
    "figure1-engine-truncated": ScenarioSpec(
        topology=FIGURE1,
        sends=FIGURE1_SENDS + (Send(2, "g1", 500),),
        seed=1,
        max_rounds=10,
    ),
}

#: Recorded at the parent commit (11cd75c), before the runner changed.
#: Every pin was re-recorded once, at spec schema 7, when the digest
#: stopped covering the row's address; spec schema 8 replayed them as is.
#: All eight were re-recorded again when the row's ``trace`` section lost
#: its ``interleaving`` stream (cache schema 3); each equals the old row's
#: digest with ``trace.interleaving`` removed.  The two engine pins
#: whose runs send twice to one group (``figure1-engine-crash``,
#: ``figure1-engine-truncated``) were re-recorded when the engine let a
#: member push the next ``L_g`` entry in the step that delivered the
#: last one (DESIGN.md §13); the old step order reproduces the old pins.
#: All three engine pins were re-recorded when line 7 stopped appending
#: a message already in ``LOG_g``: only ``trace.quorum_queries`` moved
#: (95 → 91, 144 → 136, 140 → 132): a skipped append asks no guard.
#: And again when the action scan reached its own fixpoint: only trace
#: counters moved — ``actions`` (72 → 67, 108 → 98, 107 → 98; the Prop 1
#: helper counts only its appends), ``gamma_queries``, and in the crash
#: and truncated rows ``scanned`` / ``skipped`` / ``wait_reasons`` (a fire
#: parks its process at its fixpoint).
PINS = {
    "figure1-engine-crash": "4f4a586a7221bcc3ae010c2b961e6978bd3bfaf7706c5b173709db97f60cab2c",
    # The two kernel pins were re-recorded in PR 20 (the §4.3 consensus
    # sends fewer datagrams), PR 21 (a log slot decides a batch) and PR 23
    # (DECIDE is not relayed, a waiting replica is parked, ``Omega_g`` takes
    # an orphaned slot over) — each on purpose, DESIGN.md §16; the parents'
    # values live on in tests/substrates/test_slot_cost.py.
    "disjoint-kernel-event": "225a9dd7e605b87a1e6f7e1a52b2b5c74606a05551cdc7a396ea6712ddd660d9",
    "figure1-async-uniform": "ad6c26ffa30a448a182d5e706822e01b8db714ce9eae3fc06809ca74fd5e2889",
    # The three detector-faulted pins were re-recorded when
    # ``sigma_noised`` / ``omega_rotated`` became counts of the built
    # history (one per scope and round the fault decided) instead of per
    # query; minus those two keys each row hashes as before.
    "figure1-engine-faulted": "debdb3e087d88e4b45f1f9b21caa482352718fd727f854d1a5bae586855c1841",
    "disjoint-kernel-faulted": "d5286acf6bdb47f26298cc090b62aa3dc58467e00e933c2b86171c5998f83d2d",
    "figure1-async-faulted": "25d51ebc6a4b7cabebe1962452751455e23e9d0165ea8adca2d26437c7d7bda4",
    "disjoint-kernel-detectors": "6677d45315571f95a0b20f214b08fb813db5e98ffae6289fa3fbf86b8b59492e",
    "figure1-engine-truncated": "5545cacec472060ef9fd0f0f89361dcae91d08177a645e5f049aac21dcf2f998",
}


def row_digest(spec: ScenarioSpec, **runner_options) -> str:
    row = run_scenario(spec, **runner_options).to_row()
    del row["spec"], row["spec_hash"]
    return hashlib.sha256(
        json.dumps(row, sort_keys=True).encode("utf-8")
    ).hexdigest()


def test_every_spec_is_pinned():
    assert set(PINS) == set(SPECS)


@pytest.mark.parametrize("label", sorted(SPECS))
def test_row_matches_parent_commit(label):
    assert row_digest(SPECS[label]) == PINS[label]


def test_kernel_detector_pin_exercises_both_wrappers():
    stats = run_scenario(SPECS["disjoint-kernel-detectors"]).injector.stats
    assert stats["sigma_noised"] > 0 and stats["omega_rotated"] > 0


def test_truncated_pin_really_leaves_sends_unsent():
    result = run_scenario(SPECS["figure1-engine-truncated"])
    assert result.truncated and len(result.unsent_sends) == 1


@pytest.mark.parametrize(
    "label",
    ["figure1-engine-crash", "disjoint-kernel-event", "figure1-async-uniform"],
)
def test_armed_watchdog_leaves_the_row_alone(label):
    # The watchdog only decides how long a *stalled* run may spin; a run
    # that makes progress must produce the unarmed row, byte for byte.
    assert row_digest(SPECS[label], stall_window=150) == PINS[label]


if __name__ == "__main__":
    for name in SPECS:
        print(f'    "{name}": "{row_digest(SPECS[name])}",')
