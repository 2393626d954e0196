"""Genuine message-passing substrates (§4.3): leader consensus from
Omega ∧ Sigma and a consensus-based replicated log (universal
construction).  Proposition 47's fast path is charged by the shared-object
run (:class:`repro.objects.space.IntersectionLogHandle`), not here."""
