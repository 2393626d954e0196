"""One host protocol: the ten hosts conform to ``RoundHost``.

``MulticastSystem``, ``Kernel``, the four baselines and the four
extractions are everything ``run_deployment`` (or anything else that
drives rounds) can be handed.  The conformance half runs each of them
through the members ``repro.runtime.actors.RoundHost`` promises; the layout
half reads the source (AST only, nothing imported) and fails when a
whole-system host grows a private scheduler or clock again, or the
fault layer a private pipeline.
"""

import ast
import pathlib

import pytest

from repro.baselines.broadcast import BroadcastMulticast
from repro.baselines.partitioned import PartitionedMulticast
from repro.baselines.skeen import SkeenMulticast
from repro.baselines.spanning_tree import SpanningTreeMulticast
from repro.core.engine import MulticastSystem
from repro.emulation.gamma_extraction import GammaExtraction
from repro.emulation.indicator_extraction import IndicatorExtraction
from repro.emulation.omega_extraction import OmegaExtraction
from repro.emulation.sigma_extraction import SigmaExtraction
from repro.groups.topology import paper_figure1_topology
from repro.metrics.trace import TraceRecorder
from repro.model.failures import failure_free
from repro.model.processes import make_processes, pset
from repro.runtime.actors import RoundHost
from repro.sim.kernel import Kernel
from repro.substrates.replicated_log import ReplicatedLogCluster
from repro.workloads.topologies import disjoint_topology

FIGURE1 = paper_figure1_topology()
DISJOINT = disjoint_topology(2, group_size=2)


def _kernel():
    pattern = failure_free(DISJOINT.processes)
    cluster = ReplicatedLogCluster(pattern, DISJOINT.group("g1").members)
    return Kernel(pattern, cluster.automata, cluster.detectors)


def _partitioned():
    return PartitionedMulticast(
        DISJOINT,
        failure_free(DISJOINT.processes),
        [g.members for g in DISJOINT.groups],
    )


HOSTS = {
    "MulticastSystem": lambda: MulticastSystem(FIGURE1, failure_free(FIGURE1.processes)),
    "Kernel": _kernel,
    "BroadcastMulticast": lambda: BroadcastMulticast(FIGURE1, failure_free(FIGURE1.processes)),
    "SkeenMulticast": lambda: SkeenMulticast(FIGURE1, failure_free(FIGURE1.processes)),
    "PartitionedMulticast": _partitioned,
    "SpanningTreeMulticast": lambda: SpanningTreeMulticast(
        FIGURE1, failure_free(FIGURE1.processes)
    ),
    "SigmaExtraction": lambda: SigmaExtraction(
        FIGURE1, failure_free(FIGURE1.processes), ["g1"], max_subset_size=1
    ),
    "GammaExtraction": lambda: GammaExtraction(FIGURE1, failure_free(FIGURE1.processes)),
    "IndicatorExtraction": lambda: IndicatorExtraction(
        FIGURE1, failure_free(FIGURE1.processes), "g1", "g2"
    ),
    "OmegaExtraction": lambda: OmegaExtraction(
        FIGURE1, failure_free(FIGURE1.processes), "g1", "g2"
    ),
}


@pytest.fixture(params=sorted(HOSTS))
def host(request):
    return HOSTS[request.param]()


class TestConformance:
    def test_is_a_round_host_with_the_documented_members(self, host):
        assert isinstance(host, RoundHost)
        assert host.time == 0
        assert isinstance(host.tracer, TraceRecorder)
        assert host.last_run_quiescent is True  # nothing cut short yet
        assert host.settle_horizon() >= 0

    def test_time_is_monotone_across_ticks(self, host):
        seen = [host.time]
        for _ in range(3):
            fired = host.tick()
            assert isinstance(fired, int)
            seen.append(host.time)
        assert seen == [0, 1, 2, 3]

    def test_run_returns_rounds_executed_and_sets_the_flag(self, host):
        rounds = host.run(4, quiescent_rounds=2)
        assert 1 <= rounds <= 4
        assert host.time == rounds
        assert isinstance(host.last_run_quiescent, bool)
        # Quiescent means it stopped early on idle rounds, or ended idle.
        if rounds < 4:
            assert host.last_run_quiescent

    def test_a_raising_stop_when_leaves_at_once(self, host):
        class Stop(Exception):
            pass

        def stop_when():
            raise Stop

        with pytest.raises(Stop):
            host.run(5, quiescent_rounds=2, stop_when=stop_when)
        assert host.time == 1


# -- Layout (AST only) ---------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _trees(package):
    for path in sorted((SRC / package).glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("package", ["baselines", "emulation"])
def test_whole_system_hosts_hold_no_private_scheduler_or_clock(package):
    offences = []
    for path, tree in _trees(package):
        for node in ast.walk(tree):
            # Name.id, Attribute.attr, and the .name of an import alias,
            # a def or a class.
            for field in ("id", "attr", "name"):
                named = getattr(node, field, None)
                if named in ("Scheduler", "system_scheduler", "_scheduler"):
                    offences.append(f"{path.name}:{node.lineno} names {named}")
            if isinstance(node, ast.FunctionDef) and node.name in (
                "time", "last_run_quiescent"
            ):
                offences.append(f"{path.name}:{node.lineno} defines {node.name}")
    assert not offences, "\n".join(offences)


def test_fault_layer_does_not_import_the_baselines():
    offences = []
    for path, tree in _trees("faults"):
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            offences += [
                f"{path.name}:{node.lineno} imports {m}"
                for m in modules
                if m.startswith("repro.baselines")
            ]
    assert not offences, "\n".join(offences)
