"""Failure detectors: Sigma, Omega, gamma, 1^P, restriction, conjunction,
the candidate mu (§3), and a property-validation harness."""
