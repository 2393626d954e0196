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
    "figure1-engine-truncated": ScenarioSpec(
        topology=FIGURE1,
        sends=FIGURE1_SENDS + (Send(2, "g1", 500),),
        seed=1,
        max_rounds=10,
    ),
}

#: Recorded at the parent commit (11cd75c), before the runner changed.
PINS = {
    "figure1-engine-crash": "1daebe396c53f414d4d6df7a786db348490ebf9f82f7fffaf3fe5aa01aa11988",
    # The two kernel pins were re-recorded in PR 20 (the §4.3 consensus
    # sends fewer datagrams), PR 21 (a log slot decides a batch) and PR 23
    # (DECIDE is not relayed, a waiting replica is parked, ``Omega_g`` takes
    # an orphaned slot over) — each on purpose, DESIGN.md §16; the parents'
    # values live on in tests/substrates/test_slot_cost.py.
    "disjoint-kernel-event": "9eb03fddc476be7e4cc36c568de4658ea0bd480fb460a59e76394b54bd6799da",
    "figure1-async-uniform": "19cddf8f1cb78edac2552afcafb381d71db48ca32accc59f681c22e50c1245ad",
    "figure1-engine-faulted": "af24c0da4e09f14cdeb3f4e4841996785e558ccf5a7563b919bf11d457a33c10",
    "disjoint-kernel-faulted": "342ac8d2c5804e8d2b72ed93343236379bb4fab7d559598871a22bb7c69895e7",
    "figure1-async-faulted": "bd8a0782274ea23b7181ea437f07604aabf1ddc0398557abac3b4b6a37a6c29c",
    "figure1-engine-truncated": "7a94fa6fbfba56f852611e35abad1680ba60cee084edc50caf23f822ff12bc90",
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
