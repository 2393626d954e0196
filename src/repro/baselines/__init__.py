"""Comparator protocols, each a :class:`repro.baselines.base.BaselineMulticast`
host: the non-genuine broadcast-based baseline (§2.3), Skeen's failure-free
classic [5, 22], the disjoint-partition architecture of the prior
fault-tolerant protocols (§7), and the §7 spanning-tree sketch of strongly
genuine multicast."""
