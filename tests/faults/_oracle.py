"""Retired fault-layer bodies, kept as references for differential tests.

* ``broadcast_outcome`` — ``repro.faults.shrink`` used to run the §2.3
  broadcast baseline through this hand-rolled copy of the scenario
  pipeline.  The harness is now ``run_deployment`` with
  ``_broadcast_deployment``; this body is the parent's
  ``_broadcast_outcome``, verbatim.  It issues every send at time 0
  whatever its ``at_round``, arms no watchdog and audits no injector —
  which is why the differential holds on ``at_round == 0`` specs only
  (``tests/faults/test_shrink.py`` pins what the new path does beyond).
* ``_NoisySampler``, ``delay_omega`` and ``pinned_required`` — the three
  detector hooks ``FaultInjector.perturb_mu`` replaced: the wrapper the
  kernel put around every sampler, the ``Mu`` method the engine used to
  floor ``Omega`` stabilization, and the ``sigma_noise`` pin of
  ``MulticastSystem.quorum_ok``, verbatim.
  ``tests/faults/test_detector_components.py`` checks the perturbed
  components against them.
"""

from typing import Any, Dict

from repro.detectors.base import FailureDetector
from repro.faults.injector import FaultInjector, injector_for
from repro.props.batch import batch_verdicts, variant_checks
from repro.workloads.runner import script_senders
from repro.workloads.spec import ScenarioSpec


def broadcast_outcome(spec: ScenarioSpec) -> Dict[str, Any]:
    from repro.baselines.broadcast import BroadcastMulticast

    topology = spec.build_topology()
    pattern = spec.build_pattern()
    injector = injector_for(spec.faults, topology, seed=spec.seed)
    if injector is not None:
        # The baseline has no buffer and samples no detectors; only the
        # crash-burst slice of the plan perturbs it.
        pattern = injector.perturb_pattern(pattern)
    system = BroadcastMulticast(topology, pattern, seed=spec.seed)
    senders = script_senders(spec, topology)
    skipped = 0
    for send in spec.sends:
        sender = senders[send.sender]
        if not pattern.is_alive(sender, system.time):
            skipped += 1
            continue
        system.multicast(sender, send.group, send.payload)
    rounds = system.run(max_rounds=spec.max_rounds)
    return {
        "verdicts": batch_verdicts(
            system.record, extra=variant_checks(spec.variant)
        ),
        "truncated": rounds >= spec.max_rounds,
    }


# -- The retired detector hooks ------------------------------------------------


class _NoisySampler(FailureDetector):
    """A kernel detector module filtered through the plan's noise.

    Wraps samplers shaped like
    :class:`repro.substrates.consensus.OmegaSigmaSampler`: dict samples
    with ``"sigma"`` / ``"omega"`` entries, oracles with a ``scope``.
    During a ``sigma_noise`` window the quorum sample is pinned to the
    full scope (operations must hear from everyone, including the
    crashed — they stall, admissibly, until the window closes).  During
    an ``omega_late`` window the reported leader rotates among the
    alive scope members — deterministically by time, so replays are
    byte-identical without consuming injector randomness.
    """

    kind = "noisy"

    def __init__(self, inner: FailureDetector, injector: FaultInjector) -> None:
        super().__init__()
        self.inner = inner
        self.injector = injector

    def query(self, p, t):  # noqa: ANN001 - FailureDetector signature
        sample = self.inner.query(p, t)
        if not isinstance(sample, dict):
            return sample
        sample = dict(sample)
        sigma = getattr(self.inner, "sigma", None)
        if sigma is not None and "sigma" in sample:
            scope = frozenset(q.index for q in sigma.scope)
            if self.injector.sigma_noisy(scope, t):
                sample["sigma"] = sigma.scope
        omega = getattr(self.inner, "omega", None)
        if omega is not None and "omega" in sample:
            scope = frozenset(q.index for q in omega.scope)
            if self.injector.omega_unstable(scope, t):
                alive = [
                    q
                    for q in sorted(omega.scope)
                    if omega.pattern.is_alive(q, t)
                ]
                if alive:
                    self.injector.stats["omega_rotated"] += 1
                    sample["omega"] = alive[t % len(alive)]
        return sample


def delay_omega(mu, group_name, until):  # noqa: ANN001 - was a Mu method
    """Raise the stabilization time of ``Omega_g`` to at least ``until``.

    Used by the fault layer's ``omega_late`` injector: before the new
    stabilization time the oracle keeps reporting the smallest *alive*
    scope member (which may be faulty and may change) — exactly the
    arbitrary-finite-prefix misbehaviour the detector definition
    allows.  ``group_name=None`` delays every group's oracle.  Callers
    relying on the latest stabilization time over ``mu.omegas`` must
    re-read it afterwards.
    """
    for g, omega in mu.omegas.items():
        if group_name is None or g.name == group_name:
            omega.stabilization_time = max(omega.stabilization_time, until)


def pinned_required(mu, injector, caller, scope, t):  # noqa: ANN001
    """The quorum ``MulticastSystem.quorum_ok`` required of ``caller``
    at ``t``, noise pin included."""
    required = mu.sigma_of(scope).query(caller, t)
    if injector is not None and injector.sigma_noisy(
        frozenset(q.index for q in scope), t
    ):
        # Transient false suspicion, rendered admissibly: during the
        # noise window the Sigma sample is pinned to the full scope,
        # so any two samples still intersect (Intersection holds) and
        # operations merely stall until the window closes (Liveness
        # constrains only the suffix).
        required = scope
    return required
