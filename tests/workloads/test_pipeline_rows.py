"""Cross-commit row pins for the ``run_scenario`` pipeline.

The differential suites compare the backends with each other; these pins
compare this commit with the last one.  Each entry is
``sha256(json.dumps(run_scenario(spec).to_row(), sort_keys=True))``,
recorded at the commit *before* the three ``_execute*`` bodies were
folded into one pipeline — a runner refactor that moves any delivery,
round count, trace counter, verdict or send-accounting field of these
rows fails here, under ``pytest -x -q``.

A pin that must move (a deliberate protocol or row-schema change) is
re-recorded with ``PYTHONPATH=src python tests/workloads/test_pipeline_rows.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.nemesis import random_plan
from repro.groups import paper_figure1_topology
from repro.workloads import ScenarioSpec, Send, run_scenario
from repro.workloads.spec import TopologySpec
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
#: Every pin was re-recorded when spec schema 7 moved the ``spec`` and
#: ``spec_hash`` a row embeds; the rest of each row is unchanged.
PINS = {
    "figure1-engine-crash": "6661648b29913d418ba526d1886d3c5cabf3aa815228570c3cf31b94c9267ef3",
    # The two kernel pins were re-recorded in PR 20 (the §4.3 consensus
    # sends fewer datagrams), PR 21 (a log slot decides a batch) and PR 23
    # (DECIDE is not relayed, a waiting replica is parked, ``Omega_g`` takes
    # an orphaned slot over) — each on purpose, DESIGN.md §16; the parents'
    # values live on in tests/substrates/test_slot_cost.py.
    "disjoint-kernel-event": "f41d483c095eb157be8a21279654972456357e4b7168a37471e4276cc10e9e5e",
    "figure1-async-uniform": "36840e7a3772aa133478211433081d2f4d4ffc443c97fab76b80e5aef75cc7b7",
    "figure1-engine-faulted": "6fef3c88046bcda4084248f285dbc93bb9b88ab1dd2cbbe76afc601bb60f8512",
    "disjoint-kernel-faulted": "9eb7f31152335aafa675370bdf6984aa68894bef8b7d4660315ad2d3951d81ed",
    "figure1-async-faulted": "5aefbe433187b528bd8bdc64fcc1dae896014a2ddf83e31f5129a8788ccc3568",
    # Recorded at the commit before ``mu`` became a record of components.
    "disjoint-kernel-detectors": "0cf5b83992219a245f5a00cb525d76865f357c89bcd31df8b0ed30b3fc17773d",
    "figure1-engine-truncated": "a8fc4a452dbe80dc279a52af34a00a3fb17832ab3d099a494ec2bf619cc57b53",
}


def row_digest(spec: ScenarioSpec, **runner_options) -> str:
    row = run_scenario(spec, **runner_options).to_row()
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
