"""Cross-commit row pins for the ``run_scenario`` pipeline.

The differential suites compare the backends with each other; these pins
compare this commit with the last one.  Each pin is ``row_digest`` of a
``tests/runtime/_scenarios.py::ROW_SPECS`` cell, the sha256 of its row
minus its address, stored in the ``rows`` section of
``tests/runtime/golden.json`` — a runner refactor that moves any
delivery, round count, trace counter, verdict or send-accounting field
of these rows fails here, under ``pytest -x -q``.

A pin that must move (a deliberate protocol or row-schema change) is
re-recorded by ``tests/runtime/generate_golden.py``, with every other
schedule witness and the cache's ``SCHEDULE_FINGERPRINT``.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import EVENT_KINDS
from repro.workloads.runner import run_scenario
from tests.runtime._scenarios import ROW_SPECS, load_golden, row_digest

ROWS = load_golden()["rows"]


def test_every_spec_is_pinned():
    assert set(ROWS) == set(ROW_SPECS)


@pytest.mark.parametrize("label", sorted(ROW_SPECS))
def test_row_matches_parent_commit(label):
    assert row_digest(ROW_SPECS[label]) == ROWS[label]


def test_the_pinned_cells_draw_every_fault_kind_on_every_backend():
    drawn = {}
    for spec in ROW_SPECS.values():
        events = spec.faults.events if spec.faults else ()
        drawn.setdefault(spec.backend, set()).update(e.kind for e in events)
    assert drawn == {
        backend: set(EVENT_KINDS) for backend in ("engine", "kernel", "async")
    }


@pytest.mark.parametrize(
    "label, idle",
    [
        # No datagrams: the link kinds and the partition have nothing to act on.
        (
            "figure1-engine-chaos",
            {"delayed", "dropped", "duplicated", "flaky_dropped",
             "flaky_retransmitted", "partitioned", "reordered", "retransmitted"},
        ),
        ("disjoint-kernel-chaos", set()),
        # No receive queue to reorder: ``pick_receive`` is the kernel buffer's.
        ("figure1-async-chaos", {"reordered"}),
    ],
)
def test_a_chaos_pin_moves_every_counter_its_backend_feeds(label, idle):
    stats = run_scenario(ROW_SPECS[label]).injector.stats
    assert {name for name, count in stats.items() if count == 0} == idle


def test_kernel_detector_pin_exercises_both_wrappers():
    stats = run_scenario(ROW_SPECS["disjoint-kernel-detectors"]).injector.stats
    assert stats["sigma_noised"] > 0 and stats["omega_rotated"] > 0


def test_truncated_pin_really_leaves_sends_unsent():
    result = run_scenario(ROW_SPECS["figure1-engine-truncated"])
    assert result.truncated and len(result.unsent_sends) == 1


@pytest.mark.parametrize(
    "label",
    ["figure1-engine-crash", "disjoint-kernel-event", "figure1-async-uniform"],
)
def test_armed_watchdog_leaves_the_row_alone(label):
    # The watchdog only decides how long a *stalled* run may spin; a run
    # that makes progress must produce the unarmed row, byte for byte.
    assert row_digest(ROW_SPECS[label], stall_window=150) == ROWS[label]
