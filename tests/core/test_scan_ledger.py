"""What Algorithm 1's action scan costs, in the repository's own frames.

``Algorithm1Process.try_actions`` is the one layer the benchmark's
per-layer profile still names above its tripwire, so its host work gets a
tier-1 number: the frames of code under ``src/repro/`` opened while a scan
is on the stack — the scan itself, the actions, the guards, the object
layer, the detectors and the record — per delivery, on the object
ledger's Figure 1 cell (``test_object_ledger.py``).
"""

import gc
import os
import sys

import repro
from repro.core.algorithm1 import Algorithm1Process
from repro.workloads.runner import run_scenario

from .test_object_ledger import INLINED, figure1_cell

#: Where the package's code lives: frames of other files do not count.
PACKAGE = os.path.dirname(repro.__file__) + os.sep

#: Frames per delivery on :func:`test_scan_ledger`'s cell: the measured
#: 63.85 plus 10 %.
SCAN_FRAMES_CEILING = 70.24


def scan_frames(spec):
    """``(frames, deliveries)``: the ``call`` events of package code
    opened while a ``try_actions`` frame is live (that frame included),
    and the run's deliveries."""
    scan = Algorithm1Process.try_actions.__code__
    counts = {"frames": 0, "depth": 0}

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call":
            if code is scan:
                counts["depth"] += 1
                counts["frames"] += 1
            elif (
                counts["depth"]
                and code.co_name not in INLINED
                and code.co_filename.startswith(PACKAGE)
            ):
                counts["frames"] += 1
        elif event == "return" and code is scan:
            counts["depth"] -= 1

    # Collecting an earlier test's suspended async tasks closes their
    # generators, which opens package frames: collect before, not during.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = run_scenario(spec)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    assert result.delivered_everywhere()
    return counts["frames"], len(result.record.deliveries)


def test_scan_ledger():
    """Frames under Algorithm 1's scan per delivery, 60 multicasts.

    With a reader lookup by object name and two host callbacks per
    write, five frames per quorum guard, two handle frames per log read
    and record lookups through the handle, this cell read 237.35 on
    Python 3.11; with a Python ``__hash__`` frame per message hash,
    172.50.  With a ``note_steps`` frame per charge, ``gamma(g)`` asked
    through ``Mu.gamma_partners`` (a ``Group.__hash__`` and a
    ``Timeline.query`` frame under it), and a frame per log membership
    test, rank and wait reason, 147.23.  With every quorum check a
    ``mutation_available`` → ``quorum_ok`` → ``Sigma.query`` chain
    instead of one read of the engine's verdict memo per operation,
    107.37 (the handle method is gone; ``MulticastSystem.blocked`` is
    the only guard Algorithm 1 asks).  With a charge-sink frame and a
    ``Log`` frame under every mutation, 81.71; with each mutation one
    handle frame, 63.85.
    """
    frames, deliveries = scan_frames(figure1_cell())
    assert deliveries > 0
    assert frames / deliveries <= SCAN_FRAMES_CEILING, (frames, deliveries)
