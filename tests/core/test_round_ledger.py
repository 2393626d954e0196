"""What the kernel's round loop and step cost, per delivery.

A kernel round skips a parked automaton; the question is how often it
has to *ask* (``AutomatonActor.parked``) to find out.  The scheduler
memoises a verdict of parked until an event voids it, so most parked
processes are skipped with one set lookup.  A step that is taken opens
one frame per layer, and the step ledger counts them.  Both counts are
on the seed-0 ``kernel-wide`` cell of ``benchmarks/e2e/workloads.py``
(200 processes in 40 disjoint groups of 5, one multicast per group every
3 rounds for 25 waves), simulated and exact.
"""

import os

from repro.runtime.actors import AutomatonActor
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec, TopologySpec
from tests.core.test_object_ledger import ledger_frames

GROUPS, GROUP_SIZE, WAVES = 40, 5, 25

#: ``parked`` evaluations per delivery on :func:`kernel_wide_cell`: the
#: measured 2.2782 plus 10 %.
PARKED_PER_DELIVERY_CEILING = 2.506

#: Source files of a kernel step: the kernel, the §4.3 substrates, the
#: message buffer, the run record, the actor adapters and the trace
#: recorder.
STEP_FILES = (
    os.path.join("repro", "sim", ""),
    os.path.join("repro", "substrates", ""),
    os.path.join("repro", "model", "messages.py"),
    os.path.join("repro", "model", "runs.py"),
    os.path.join("repro", "runtime", "actors.py"),
    os.path.join("repro", "metrics", "trace.py"),
)

#: Frames of :data:`STEP_FILES` per delivery on :func:`kernel_wide_cell`:
#: the measured 24.43 plus 10 %.
STEP_FRAMES_CEILING = 26.87

#: Builtin calls made from those files' frames per delivery on the same
#: cell: the measured 37.66 plus 10 %.
STEP_BUILTINS_CEILING = 41.42


def kernel_wide_cell(seed=0):
    """The ``kernel-wide`` benchmark cell at ``seed``."""
    return ScenarioSpec(
        topology=TopologySpec.from_generator(
            {"kind": "disjoint", "k": GROUPS, "group_size": GROUP_SIZE}
        ),
        sends=tuple(
            Send(sender=(g - 1) * GROUP_SIZE + 1, group=f"g{g}", at_round=wave * 3)
            for wave in range(WAVES)
            for g in range(1, GROUPS + 1)
        ),
        seed=seed,
        max_rounds=6000,
        backend="kernel",
    )


def test_parked_evaluations_per_delivery(monkeypatch):
    """Before the memo every actor of every non-full-scan round was
    asked: 16 800 evaluations for 5 000 deliveries (3.36 a delivery),
    5 409 of them re-confirming a verdict no event could have changed.
    With it the cell reads 11 391 (2.28)."""
    asked = {"parked": 0}
    parked = AutomatonActor.parked

    def counted(self, t):
        asked["parked"] += 1
        return parked(self, t)

    monkeypatch.setattr(AutomatonActor, "parked", counted)
    result = run_scenario(kernel_wide_cell())
    kernel = result.kernel
    deliveries = len(result.record.deliveries)
    # The cell is the benchmark's: its step and datagram ledger.
    assert (deliveries, sum(kernel.steps_taken.values()), kernel.total_messages()) == (
        5000,
        8263,
        7536,
    )
    assert asked["parked"] / deliveries <= PARKED_PER_DELIVERY_CEILING, asked


def test_kernel_step_ledger():
    """Frames of the kernel step path per delivery, and the builtin calls
    they make, comprehensions left out (so 3.10–3.12 agree).

    A step is scheduler → ``AutomatonActor.fire`` → ``Kernel.step_process``
    → ``ReplicatedLogAutomaton.on_step`` → one slot's ``_handle`` /
    ``_progress`` → the buffer.  With a ``Context.bind`` frame per step,
    a slot view re-bound by a frame of its own before each slot call and
    sending through ``Context.send`` / ``broadcast``, a
    ``MessageBuffer.has_pending`` frame per ``parked`` test, a
    ``TraceRecorder.note_scanned`` frame per fire, generator quorum tests
    in ``ConsensusAutomaton`` and a ``_slot`` frame per datagram for a
    slot already held, this cell read 37.01 frames and 42.41 builtin
    calls a delivery; with one frame per layer, 24.43 and 37.66.
    """
    frames, builtins, deliveries = ledger_frames(kernel_wide_cell(), STEP_FILES)
    assert deliveries == 5000
    assert frames / deliveries <= STEP_FRAMES_CEILING, (frames, deliveries)
    assert builtins / deliveries <= STEP_BUILTINS_CEILING, (builtins, deliveries)
