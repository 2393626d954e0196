"""Genuine message-passing substrates (§4.3): ABD registers from Sigma,
adopt-commit from Sigma_{g∩h}, leader consensus from Omega ∧ Sigma, and a
consensus-based replicated log (universal construction)."""
