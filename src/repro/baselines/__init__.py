"""Comparator protocols: the non-genuine broadcast-based baseline (§2.3),
Skeen's failure-free classic [5, 22], and the disjoint-partition
architecture of the prior fault-tolerant protocols (§7)."""
