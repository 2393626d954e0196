"""Hand-built ``mu`` values for engine tests.

``mu`` is a record of components, so a test that wants a detector other
than the pattern oracles swaps a component in rather than passing the
engine a knob.
"""

from repro.detectors import Mu, OmegaOracle, build_mu


def late_omega_mu(pattern, topology, stabilization):
    """``build_mu(pattern, topology)`` with every ``Omega_g`` stabilizing
    at ``stabilization`` (before it, the smallest alive member leads)."""
    mu = build_mu(pattern, topology)
    omegas = {
        g: OmegaOracle(
            pattern.restricted_to(g.members),
            g.members,
            stabilization_time=stabilization,
        )
        for g in mu.omegas
    }
    return Mu(topology, mu.sigmas, omegas, mu.gamma)
