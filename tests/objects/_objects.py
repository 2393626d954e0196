"""The shared objects the object tests drive, built one way.

Each object lives in an object space of its own, over a one-member
group whose member :data:`P` invokes every operation, so a test reads
the sequential specification with one fixed caller.
"""

from repro.groups.topology import Group
from repro.model.processes import ProcessId
from repro.objects.space import ConsensusHandle, LogHandle, ObjectSpace

#: The caller of every operation.
P = ProcessId(1)

GROUP = Group("g", [P])


def new_log() -> LogHandle:
    """A fresh ``LOG_g``."""
    return ObjectSpace().group_log(GROUP)


def new_consensus() -> ConsensusHandle:
    """A fresh ``CONS_{m,f}`` hosted by ``g``."""
    return ObjectSpace().consensus("m", "f", GROUP)
