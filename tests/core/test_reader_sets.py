"""Every shared log wakes exactly the readers the retired wake index named.

A mutation hands its log's reader set to the engine's write sink, and the
async driver draws one wake latency per reader in the order the set
iterates.  So the sets must equal the retired name-keyed wake index
(``tests/core/_oracle.py``) not only as sets but as *ordered tuples*: two
equal frozensets built differently may iterate differently (Figure 1's
``LOG_g1∩g4`` and ``LOG_g3∩g4`` do for ``g.members | h.members``), and
that would move every async golden.
"""

import pytest

from repro.core.engine import MulticastSystem
from repro.core.group_sequential import AtomicMulticast
from repro.groups.topology import paper_figure1_topology
from repro.model.failures import failure_free
from repro.workloads.topologies import disjoint_topology, hub_topology, ring_topology

from ._oracle import wake_index

TOPOLOGIES = {
    "figure1": paper_figure1_topology,
    "ring5": lambda: ring_topology(5),
    "hub4": lambda: hub_topology(4),
    "disjoint3x3": lambda: disjoint_topology(3, 3),
}


def every_handle(topology):
    """Each log of one deployment of ``topology``: the space's group and
    intersection logs (both argument orders) and ``AtomicMulticast``'s
    ``L_g`` lists."""
    system = MulticastSystem(topology, failure_free(topology.processes))
    amc = AtomicMulticast(system)
    handles = [system.space.group_log(g) for g in topology.groups]
    for g, h in topology.intersecting_pairs():
        handles.append(system.space.intersection_log(h, g))
        assert system.space.intersection_log(g, h) is handles[-1]
    handles.extend(amc._lists[g.members] for g in topology.groups)
    return handles


@pytest.mark.parametrize("label", sorted(TOPOLOGIES))
def test_every_reader_set_is_the_wake_index_entry_in_order(label):
    topology = TOPOLOGIES[label]()
    index = wake_index(topology)
    handles = every_handle(topology)
    assert sorted(h.name for h in handles) == sorted(index)
    for handle in handles:
        assert tuple(handle.readers) == tuple(index[handle.name]), handle.name
