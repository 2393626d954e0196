"""The benchmark's tracing seams must survive every refactor of ``src/``.

``benchmarks/e2e/shim.py`` wraps callables *by name* (``SEAMS``) and
patches the owner's own ``__dict__``; renaming or moving one makes the
gate's benchmark die with a ``KeyError`` mid-run.  This test reads that
file (by path — ``benchmarks/`` is not a package and is never modified
from here) and checks each seam against the live code, so the breakage
shows up under ``pytest -x -q`` instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys

SHIM_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "e2e",
    "shim.py",
)


#: The call metrics of the seams a kernel step passes through.
KERNEL_PATH_CALLS = (
    "sim.kernel.steps",
    "substrates.replicated_log.on_step_calls",
    "substrates.consensus.handle_calls",
    "substrates.consensus.progress_calls",
    "model.messages.send_calls",
    "model.messages.receive_calls",
    "detectors.query_calls",
)


def load_shim():
    # The module must be registered while it executes: its dataclasses
    # resolve their string annotations through ``sys.modules``.
    name = "_benchmark_e2e_shim_under_test"
    spec = importlib.util.spec_from_file_location(name, SHIM_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def load_seams():
    return load_shim().SEAMS


def test_every_seam_names_a_callable_defined_on_its_owner():
    seams = load_seams()
    assert seams, "the shim declares no seams"
    broken = []
    for seam in seams:
        where = f"{seam.module}:{seam.span_name}"
        try:
            module = importlib.import_module(seam.module)
        except ImportError as exc:
            broken.append(f"{where} — module does not import: {exc}")
            continue
        owner = getattr(module, seam.owner, None) if seam.owner else module
        if owner is None:
            broken.append(f"{where} — no class {seam.owner}")
        elif seam.attr not in vars(owner):
            # Inherited is not enough: the shim saves and restores
            # ``owner.__dict__[attr]``.
            broken.append(f"{where} — not defined directly on the owner")
    assert not broken, "benchmarks/e2e/shim.py SEAMS out of date:\n" + "\n".join(broken)


def test_a_kernel_step_reaches_every_seam_on_its_path():
    """A fold that steps around a seam leaves its name defined but zeroes
    its per-layer metric; run a small kernel cell under the shim's tracer
    and check every seam of the step path still counts."""
    from repro.workloads.runner import Send, run_scenario
    from repro.workloads.spec import ScenarioSpec, TopologySpec

    shim = load_shim()
    spec = ScenarioSpec(
        topology=TopologySpec.from_generator(
            {"kind": "disjoint", "k": 2, "group_size": 3}
        ),
        sends=tuple(
            Send(sender=sender, group=group, at_round=wave)
            for wave in range(3)
            for sender, group in ((1, "g1"), (4, "g2"))
        ),
        seed=0,
        backend="kernel",
    )
    tracer = shim.Tracer()
    tracer.install()
    try:
        result = run_scenario(spec)
    finally:
        tracer.uninstall()
    assert result.delivered_everywhere()
    totals = shim.seam_totals(tracer.spans)
    assert all(totals[metric] > 0 for metric in KERNEL_PATH_CALLS), {
        metric: totals[metric] for metric in KERNEL_PATH_CALLS
    }
    assert totals["sim.kernel.steps"] == sum(result.kernel.steps_taken.values())
