"""The retired second pipeline, kept as a reference for differential tests.

Until PR 22 ``repro.faults.shrink`` ran the §2.3 broadcast baseline
through this hand-rolled copy of the scenario pipeline.  The harness is
now ``run_deployment`` with ``_broadcast_deployment``; this body is the
parent's ``_broadcast_outcome``, verbatim.  It issues every send at time
0 whatever its ``at_round``, arms no watchdog and audits no injector —
which is why the differential holds on ``at_round == 0`` specs only
(``tests/faults/test_shrink.py`` pins what the new path does beyond).
"""

from typing import Any, Dict

from repro.faults.injector import injector_for
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
