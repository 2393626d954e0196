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
#: :func:`test_shared_object_ledger`'s cell: the measured 35.78 plus 10 %.
OBJECT_FRAMES_CEILING = 39.36

#: Builtin calls made from those files' frames per delivery on the same
#: cell: the measured 54.05 plus 10 %.
OBJECT_BUILTINS_CEILING = 59.46


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


def ledger_frames(spec: ScenarioSpec, files=LEDGER_FILES):
    """``(frames, builtins, deliveries)``: the ``call`` events whose code
    lives in ``files`` while ``spec`` runs, the ``c_call`` events those
    files' frames make, and the run's deliveries."""
    frames = builtins = 0

    def in_ledger(filename: str) -> bool:
        return any(part in filename for part in files)

    def profile(frame, event, _arg):
        nonlocal frames, builtins
        if event == "c_call":
            if in_ledger(frame.f_code.co_filename):
                builtins += 1
            return
        if event != "call":
            return
        code = frame.f_code
        if code.co_name not in INLINED and in_ledger(code.co_filename):
            frames += 1

    sys.setprofile(profile)
    try:
        result = run_scenario(spec)
    finally:
        sys.setprofile(None)
    assert result.delivered_everywhere()
    return frames, builtins, len(result.record.deliveries)


def test_shared_object_ledger():
    """Frames of the shared-object layers per delivery, 60 multicasts.

    ``call`` events only: the repository's own frames, so no builtin or
    stdlib frame moves the number between Python versions.  With record
    lookups that filtered and sorted per call (a sort-key frame per row),
    the order wait reading ``rank`` / ``settled`` / ``message_at``
    through the handle, a notification frame per mutation, the
    ``Sigma`` epoch path on scopes that never change and the guard
    reading the clock through a property, this cell read 196.43 frames a
    delivery (the same on Python 3.11 and 3.12).  With a charge callback
    and a name-keyed wake notification per mutation, five frames per
    quorum guard and Algorithm 1 reading its logs through their handles,
    it read 140.57.  With a ``note_steps`` frame per charge and
    Algorithm 1 testing membership and rank through ``Log`` methods,
    98.07.  With a handle's ``mutation_available`` and a ``quorum_ok``
    frame per quorum check, where one ``blocked`` frame per operation
    now reads the engine's verdict memo, 74.23.  The host-called line-7
    push kept that chain until it read the memo too, through one
    ``fresh_verdicts`` frame a fire that replaced the inline test of
    the memo's freshness: 60.35 before, 60.49 after (Python 3.11).
    With every mutation a handle frame, a ``MulticastSystem._write``
    charge-sink frame and a ``Log`` frame (a ``_path_bill`` frame more
    on an intersection log, a ``billing_order`` frame per proposal) and
    an ``append`` of a datum already present entering ``Log.append``,
    60.05; as one handle frame that charges and wakes through the
    engine's ``Sink``, 41.74 (``MulticastSystem._write`` is gone since);
    with each object one class whose mutator applies the operation
    itself, not entering a ``Log`` / ``ConsensusObject`` beside it, 35.78.

    The ``c_call`` events those frames make count too, since a fold that
    reads its memos by subscript shows only there: with the charge sink
    and the memos read through ``dict.get``, 84.25 builtin calls a
    delivery; one frame per mutation, 65.20; one class per object, with
    one presence test per mutation, 54.05.
    """
    frames, builtins, deliveries = ledger_frames(figure1_cell())
    assert deliveries > 0
    assert frames / deliveries <= OBJECT_FRAMES_CEILING, (frames, deliveries)
    assert builtins / deliveries <= OBJECT_BUILTINS_CEILING, (builtins, deliveries)
