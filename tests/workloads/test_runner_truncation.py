"""Regression tests: ``run_scenario`` must not silently drop scripted sends.

On the seed code, a script whose later sends lay beyond ``max_rounds``
was silently truncated: the runner broke out of the issue loop, the
sends were never multicast, and ``delivered_everywhere()`` happily
returned True for the few messages that *were* issued.  A truncated run
proves nothing, so the runner now reports the leftovers in
``unsent_sends`` and ``delivered_everywhere()`` refuses success.
"""

from repro.model.failures import crash_pattern, failure_free
from repro.model.processes import make_processes, pset
from repro.workloads.runner import Send, run_scenario
from repro.workloads.spec import ScenarioSpec
from repro.workloads.topologies import chain_topology


def _topo_and_pattern():
    topo = chain_topology(2)
    procs = make_processes(3)
    return topo, procs, failure_free(pset(procs))


class TestTruncation:
    def test_truncated_script_reports_unsent_sends(self):
        topo, _, pattern = _topo_and_pattern()
        late = Send(3, "g2", at_round=500)
        result = run_scenario(
            ScenarioSpec.capture(
                topo,
                pattern,
                [Send(1, "g1", 0), late],
                seed=1,
                max_rounds=10,
            )
        )
        assert result.unsent_sends == [late]
        # The late send was never issued, not merely undelivered.
        assert len(result.messages) == 1

    def test_truncated_script_is_not_a_success(self):
        topo, _, pattern = _topo_and_pattern()
        result = run_scenario(
            ScenarioSpec.capture(
                topo,
                pattern,
                [Send(1, "g1", 0), Send(3, "g2", 500)],
                seed=1,
                max_rounds=10,
            )
        )
        # Seed bug: this returned True because only the issued message
        # was checked.  A run that never issued the whole script must
        # not report success.
        assert not result.delivered_everywhere()

    def test_unsent_and_skipped_are_disjoint(self):
        topo, procs, _ = _topo_and_pattern()
        pattern = crash_pattern(pset(procs), {procs[0]: 1})
        dead = Send(1, "g1", at_round=5)  # sender crashed at round 1
        late = Send(3, "g2", at_round=500)
        result = run_scenario(
            ScenarioSpec.capture(
                topo, pattern, [dead, late], seed=2, max_rounds=10
            )
        )
        assert result.skipped_sends == [dead]
        assert result.unsent_sends == [late]

    def test_complete_script_has_no_unsent_sends(self):
        topo, _, pattern = _topo_and_pattern()
        result = run_scenario(
            ScenarioSpec.capture(
                topo,
                pattern,
                [Send(1, "g1", 0), Send(3, "g2", 4)],
                seed=1,
            )
        )
        assert result.unsent_sends == []
        assert result.delivered_everywhere()
