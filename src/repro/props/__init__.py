"""Executable correctness properties of atomic multicast (§2, §6, §7)."""
