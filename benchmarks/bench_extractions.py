"""E5/E6/E7 — the necessity extractions at work (§5, §6, Appendix B).

* E5 (Algorithm 2): rounds for the emulated ``Sigma_{g∩h}`` quorum at a
  survivor to shrink to correct processes, vs intersection width.
* E6 (Algorithm 3): rounds for the emulated ``gamma`` to exclude a ring
  family after an intersection dies, vs ring size — the chain relays one
  multicast per edge, so detection latency grows with the cycle length.
* E7 (Algorithm 5): convergence of the CHT-style leader extraction.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro.detectors.validation import check_gamma, check_omega, check_sigma
from repro.emulation.gamma_extraction import GammaExtraction
from repro.emulation.omega_extraction import OmegaExtraction
from repro.emulation.sigma_extraction import SigmaExtraction
from repro.groups.topology import topology_from_indices
from repro.metrics.summary import format_table
from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.workloads.topologies import ring_topology

SIGMA_ROWS = []
GAMMA_ROWS = []


def teardown_module(module):
    print("\n\nE5 - Sigma extraction convergence:")
    print(format_table(("|g∩h|", "rounds to correct quorum"), SIGMA_ROWS))
    print("\nE6 - gamma extraction detection latency:")
    print(
        format_table(
            ("ring size", "rounds to exclusion", "full-chain rounds"),
            GAMMA_ROWS,
        )
    )
    chain_latencies = [row[2] for row in GAMMA_ROWS]
    # Shape: the full chain relays one multicast per edge, so its latency
    # grows with the cycle length (exclusion itself is faster thanks to
    # the converse-direction rule).
    assert chain_latencies[-1] > chain_latencies[0]


@pytest.mark.parametrize("width", [1, 2])
def test_sigma_extraction_convergence(benchmark, width):
    """g and h overlap on ``width`` processes; one overlap member dies."""
    overlap = list(range(2, 2 + width))
    g_members = [1] + overlap
    h_members = overlap + [2 + width]
    topo = topology_from_indices(
        2 + width, {"g": g_members, "h": h_members}
    )
    procs = make_processes(2 + width)
    victim = procs[1]  # first overlap member
    pattern = crash_pattern(pset(procs), {victim: 5})
    survivor = procs[2] if width > 1 else procs[0]

    def converge():
        ext = SigmaExtraction(topo, pattern, ["g", "h"], seed=width)
        history = []
        rounds = 0
        for r in range(150):
            ext.tick()
            rounds = r + 1
            queriers = [
                p
                for p in sorted(ext.scope)
                if pattern.is_alive(p, ext.time)
            ]
            for p in queriers:
                history.append((p, ext.time, ext.query(p, ext.time)))
            if width > 1:
                sample = ext.query(survivor, ext.time)
                if sample and set(sample) <= pattern.correct:
                    break
        assert check_sigma(history, pattern, ext.scope) == []
        return rounds

    rounds = run_once(benchmark, converge)
    SIGMA_ROWS.append((width, rounds))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_gamma_extraction_latency(benchmark, k):
    topo = ring_topology(k)
    procs = make_processes(k)
    crash_at = 4
    pattern = crash_pattern(pset(procs), {procs[1]: crash_at})
    observer = procs[0]

    def converge():
        ext = GammaExtraction(topo, pattern, seed=k)
        history = []
        excluded_at = None
        chain_at = None
        for r in range(400):
            ext.tick()
            for p in procs:
                if pattern.is_alive(p, ext.time):
                    history.append(
                        (p, ext.time, ext.query(p, ext.time))
                    )
            if excluded_at is None and not ext.query(observer, ext.time):
                excluded_at = ext.time
            if chain_at is None and ext.full_chain_received(observer):
                chain_at = ext.time
            if excluded_at is not None and chain_at is not None:
                break
        assert check_gamma(history, pattern, topo) == []
        assert excluded_at is not None, "family never excluded"
        assert chain_at is not None, "full chain never completed"
        return excluded_at - crash_at, chain_at - crash_at

    exclusion, chain = run_once(benchmark, converge)
    GAMMA_ROWS.append((k, exclusion, chain))


def test_omega_extraction_agreement(benchmark):
    """E7: both members of g∩h converge to the same correct leader."""
    topo = topology_from_indices(4, {"g": [1, 2, 3], "h": [2, 3, 4]})
    procs = make_processes(4)
    pattern = failure_free(pset(procs))

    def converge():
        ext = OmegaExtraction(topo, pattern, "g", "h", seed=3, max_depth=5)
        ext.run(4)
        history = []
        for p in (procs[1], procs[2]):
            history.append((p, ext.time, ext.query(p, ext.time)))
        assert check_omega(history, pattern, ext.scope) == []
        return history[0][2]

    leader = run_once(benchmark, converge)
    assert leader in (procs[1], procs[2])


def test_omega_extraction_failover(benchmark):
    topo = topology_from_indices(4, {"g": [1, 2, 3], "h": [2, 3, 4]})
    procs = make_processes(4)
    pattern = crash_pattern(pset(procs), {procs[1]: 3})

    def converge():
        ext = OmegaExtraction(topo, pattern, "g", "h", seed=4, max_depth=5)
        ext.run(9)
        return ext.query(procs[2], ext.time)

    leader = run_once(benchmark, converge)
    assert leader == procs[2]
