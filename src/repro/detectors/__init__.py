"""Failure detectors: Sigma, Omega, gamma, 1^P, the candidate mu (§3) —
whose ``query`` is the restricted conjunction — and a property-validation
harness."""
