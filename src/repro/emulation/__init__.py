"""Necessity constructions: extracting the components of mu from a
multicast black box (Algorithms 2-5, §5 and §6)."""
