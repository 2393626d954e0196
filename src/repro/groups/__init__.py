"""Destination-group combinatorics: topologies, intersection graphs,
cyclic families and closed paths (§3 of the paper)."""
