"""The paper's contribution: Algorithm 1 and its variants.

* :class:`MulticastSystem` — the group-sequential engine (§4.3).
* :class:`AtomicMulticast` — vanilla atomic multicast via the
  Proposition 1 reduction (§4.1).
* ``variant="strict"`` — the real-time-ordered variation (§6.1).
* :class:`ReplicatedStateMachine` — linearizable SMR over strict
  multicast (§6.1's motivating application).

The §7 spanning-tree sketch is a comparator protocol:
:mod:`repro.baselines.spanning_tree`.
"""
