"""The reachability census's list and its hook, checked without running a lane.

``census.py`` runs the product lanes (a CI step; too slow for tier-1).
Here: every line of ``unreached.txt`` names a ``def`` that exists and a
claim of a valid kind, and the census's hook records what a lane calls
and refuses to report once a lane took the hook away.
"""

from __future__ import annotations

import cProfile
import re
import sys
import types

import pytest

from repro.faults.shrink import _partition
from tests.reach import census

DESIGN = census.ROOT / "DESIGN.md"


def paper_rows():
    """The "Paper element" cells of DESIGN.md §5's table."""
    text = DESIGN.read_text(encoding="utf-8")
    section = text.split("## 5. ", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("| ")]
    return set(cells[1:])  # the header row is not a claim


PAPER_ROWS = paper_rows()
LISTED = census.read_list()
TABLE = census.defs()
DEFS = {d.key for d in TABLE}


def test_the_list_is_not_empty_and_every_line_names_a_def():
    assert LISTED
    assert sorted(set(LISTED) - DEFS) == []


@pytest.mark.parametrize("key", sorted(LISTED))
def test_every_line_names_a_claim_of_a_valid_kind(key):
    kind, claim = LISTED[key]
    assert kind in census.CLAIM_KINDS, f"{key}: unknown claim kind {kind!r}"
    if kind == "paper":
        assert claim in PAPER_ROWS, f"{key}: no DESIGN.md §5 row {claim!r}"
    elif kind == "seam":
        path = claim.split()[0]
        assert path.startswith("benchmarks/e2e/"), f"{key}: {path} is not a benchmark file"
        via = re.search(r"\bvia (\S+)", claim)
        if via:
            assert LISTED.get(via.group(1), ("",))[0] == "seam", f"{key}: via {via.group(1)}"
        else:
            name = key.split(":")[1].split(".")[-1]
            assert re.search(rf"\b{re.escape(name)}\b", (census.ROOT / path).read_text()), (
                f"{key}: {path} never names {name}"
            )


def test_the_def_table_keys_are_unique_and_name_nested_defs():
    keys = [d.key for d in TABLE]
    assert len(keys) == len(set(keys))
    assert "repro.campaign.executor:_exit_with_parent.<locals>.watch" in keys


def test_a_lane_records_the_defs_it_calls():
    tally = census.Census()
    with tally.lane("one call"):
        _partition([1, 2, 3], 2)
    assert "repro.faults.shrink:_partition" in tally.reached(TABLE)


def test_drift_names_the_unlisted_and_the_stale():
    reached = DEFS - {"repro.groups.families:cycle_vertex_sets"}
    listed = {"repro.faults.shrink:_partition": ("failure", "x"), "repro:nothing": ("input", "x")}
    unlisted, stale, missing = census.drift(TABLE, reached, listed)
    assert unlisted == ["repro.groups.families:cycle_vertex_sets"]
    assert stale == ["repro.faults.shrink:_partition"]
    assert missing == ["repro:nothing"]


def test_a_lane_that_clears_the_hook_fails_the_census():
    tally = census.Census()
    with pytest.raises(census.HookLost, match="clears"):
        with tally.lane("clears"):
            sys.setprofile(None)
    assert isinstance(sys.setprofile, types.BuiltinFunctionType)  # unguarded again


def test_a_lane_that_runs_its_own_profiler_fails_the_census():
    # 3.11 hands the hook over and the census notices after the lane;
    # 3.12+ refuses a second cProfile, so the lane itself raises.
    tally = census.Census()
    with pytest.raises((census.HookLost, ValueError)):
        with tally.lane("profiles"):
            own = cProfile.Profile()
            own.enable()
            own.disable()
