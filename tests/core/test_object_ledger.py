"""What a shared-object operation costs, in the repository's own frames.

Algorithm 1 runs over linearizable shared objects: every mutation charges
its invoker and the object's carriers into the run record, every order
wait and record lookup reads a log, and every mutation asks the quorum
guard first.  This ledger counts the Python frames those layers open per
delivery on one fixed engine cell, so a change that re-derives per call
what is fixed per object or per run shows up as a number, not a feeling.
"""

import os
import sys

from repro.groups.topology import paper_figure1_topology
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec

#: Source files whose frames the ledger counts: the object layer, the run
#: record, the engine's guard and charge sink, the Proposition 1
#: reduction and the ``Sigma`` oracle.
LEDGER_FILES = (
    os.path.join("repro", "objects", ""),
    os.path.join("repro", "model", "runs.py"),
    os.path.join("repro", "core", "engine.py"),
    os.path.join("repro", "core", "group_sequential.py"),
    os.path.join("repro", "detectors", "quorum.py"),
)

#: Comprehensions open a frame up to Python 3.11 and run inline from 3.12
#: on (PEP 709); the ledger leaves them out so both count alike.
INLINED = frozenset({"<listcomp>", "<setcomp>", "<dictcomp>"})

#: Frames of :data:`LEDGER_FILES` per delivery on
#: :func:`test_shared_object_ledger`'s cell: the measured 140.51 plus 10 %.
OBJECT_FRAMES_CEILING = 154.56


def figure1_cell(multicasts: int = 60) -> ScenarioSpec:
    """Figure 1 on the engine, ``multicasts`` sends round-robin over the
    groups and their members, two a round."""
    topology = paper_figure1_topology()
    groups = sorted(topology.groups, key=lambda g: g.name)
    sends = []
    for i in range(multicasts):
        members = sorted(groups[i % len(groups)].members)
        sends.append(
            Send(
                members[i % len(members)].index,
                groups[i % len(groups)].name,
                at_round=1 + i // 2,
            )
        )
    return ScenarioSpec(
        topology=TopologySpec.capture(topology),
        sends=tuple(sends),
        seed=0,
        max_rounds=2 * multicasts + 400,
    )


def ledger_frames(spec: ScenarioSpec):
    """``(frames, deliveries)``: the ``call`` events whose code lives in
    :data:`LEDGER_FILES` while ``spec`` runs, and its deliveries."""
    frames = 0

    def profile(frame, event, _arg):
        nonlocal frames
        if event != "call":
            return
        code = frame.f_code
        if code.co_name not in INLINED and _in_ledger(code.co_filename):
            frames += 1

    sys.setprofile(profile)
    try:
        result = run_scenario(spec)
    finally:
        sys.setprofile(None)
    assert result.delivered_everywhere()
    return frames, len(result.record.deliveries)


def _in_ledger(filename: str) -> bool:
    return any(part in filename for part in LEDGER_FILES)


def test_shared_object_ledger():
    """Frames of the shared-object layers per delivery, 60 multicasts.

    ``call`` events only: the repository's own frames, so no builtin or
    stdlib frame moves the number between Python versions.  With record
    lookups that filtered and sorted per call (a sort-key frame per row),
    the order wait reading ``rank`` / ``settled`` / ``message_at``
    through the handle, a notification frame per mutation, the
    ``Sigma`` epoch path on scopes that never change and the guard
    reading the clock through a property, this cell read 196.43 frames a
    delivery (the same on Python 3.11 and 3.12).
    """
    frames, deliveries = ledger_frames(figure1_cell())
    assert deliveries > 0
    per_delivery = frames / deliveries
    assert per_delivery <= OBJECT_FRAMES_CEILING, (frames, deliveries)
