"""Which functions of ``src/repro`` the product lanes reach, and which they do not.

Tier-1 reaches almost every function, including those that only their own
test calls, so it cannot say what the program needs.  This script runs the
program's own entry points — the campaign CLI, the e2e workloads, the
examples, the benchmarks and the CI snippets, red sweeps included — in this
interpreter under a profile hook, and reports every ``def`` in
``src/repro`` that no lane entered.  Each such function must be listed in
``unreached.txt`` next to the claim that keeps it; a function that is
unreached and unlisted, or listed and reached, fails the census::

    PYTHONPATH=src python tests/reach/census.py     # exit 1 on drift, 2 on a lost hook

A lane that clears or replaces the hook (``sys.setprofile(None)``, or a
C-level profiler such as cProfile) would make everything after it read as
unreached, so the census refuses to report and exits 2 instead.  A lane's
pool workers run in other processes and are not counted: what only a worker
runs is listed.

The ``def`` table is read with ``ast`` (:func:`defs`) so that the list's
tier-1 test runs on every supported Python.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import json
import os
import re
import runpy
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
LIST_PATH = Path(__file__).resolve().parent / "unreached.txt"

#: The claims that may keep a function no lane reaches.
CLAIM_KINDS = ("paper", "failure", "input", "interface", "seam")

#: ``<module>:<qualname>  <kind>: <claim>``
ENTRY = re.compile(r"^(?P<key>\S+)\s+(?P<kind>[a-z]+):\s*(?P<claim>\S.*)$")


@dataclass(frozen=True)
class Def:
    """One ``def`` in ``src/repro``: its list key and where it starts."""

    key: str
    path: str
    firstlineno: int
    lines: int


def defs(package: Path = PACKAGE) -> List[Def]:
    """Every ``def`` under ``package``, keyed ``module:qualname``.

    ``firstlineno`` is what the function's code object reports: the first
    decorator's line, else the ``def`` line.  Two defs that share a
    qualified name (a property's getter and setter) are told apart by a
    ``#2``, ``#3``... suffix in file order.
    """
    found: List[Def] = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).with_suffix("")
        module = ".".join(rel.parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(), filename=str(path))
        seen: Dict[str, int] = {}

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    seen[qualname] = seen.get(qualname, 0) + 1
                    key = f"{module}:{qualname}"
                    if seen[qualname] > 1:
                        key += f"#{seen[qualname]}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append(
                        Def(key, str(path), first, child.end_lineno - first + 1)
                    )
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def read_list(path: Path = LIST_PATH) -> Dict[str, Tuple[str, str]]:
    """``key -> (kind, claim)``; raises ``ValueError`` on a malformed line."""
    entries: Dict[str, Tuple[str, str]] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = ENTRY.match(line)
        if match is None:
            raise ValueError(f"{path.name}:{number}: not '<key>  <kind>: <claim>': {line!r}")
        if match["key"] in entries:
            raise ValueError(f"{path.name}:{number}: {match['key']} listed twice")
        entries[match["key"]] = (match["kind"], match["claim"])
    return entries


class HookLost(RuntimeError):
    """A lane cleared or replaced the census's profile hook."""


def _still_profiling(profiler: cProfile.Profile) -> bool:
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:  # 3.12+: cProfile is a sys.monitoring tool
        return monitoring.get_tool(monitoring.PROFILER_ID) is not None
    return sys.getprofile() is profiler


class Census:
    """The code objects entered while a lane runs.

    The hook is cProfile's, which runs no Python code: an exception raised
    inside a Python-level hook unsets it, and the cell timeout's ``SIGALRM``
    handler raises wherever the interpreter is, that hook included.  Only
    the main thread is profiled; ``src/`` starts a thread only in a pool
    worker.

    ``sys.setprofile`` is wrapped while a lane runs, so a lane that calls it
    is named; a profiler that takes the hook over is caught by checking,
    after the lane, that the census's profiler still holds it.  Both raise
    :class:`HookLost`.
    """

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()

    @contextlib.contextmanager
    def lane(self, name: str) -> Iterator[None]:
        setprofile = sys.setprofile
        lost: List[str] = []

        def guard(function) -> None:
            lost.append(f"{name}: called sys.setprofile({function!r})")
            setprofile(function)

        sys.setprofile = guard
        self.profiler.enable()
        try:
            yield
        finally:
            if not _still_profiling(self.profiler):
                lost.append(f"{name}: the profile hook is gone after the lane")
            self.profiler.disable()
            sys.setprofile = setprofile
        if lost:
            raise HookLost("; ".join(lost))

    def reached(self, table: Sequence[Def]) -> Set[str]:
        """Keys of the defs whose code objects a lane entered."""
        by_start = {(os.path.realpath(d.path), d.firstlineno): d.key for d in table}
        keys: Set[str] = set()
        for entry in self.profiler.getstats():
            code = entry.code
            if isinstance(code, str):  # a builtin
                continue
            key = by_start.get((os.path.realpath(code.co_filename), code.co_firstlineno))
            if key is not None:
                keys.add(key)
        return keys


# -- the lanes --------------------------------------------------------------


def _campaign(*argv: str, status: int = 0) -> None:
    """``python -m repro.campaign ARGV``, which must exit ``status``."""
    from repro.campaign.__main__ import main

    got = main(list(argv))
    if got != status:
        raise RuntimeError(f"repro.campaign {' '.join(argv)} exited {got}, not {status}")


def _sweep_hash_snippet(out: str) -> None:
    """The fault-matrix job's check that the meta line names the inventory."""
    from repro.campaign.aggregate import sweep_hash
    from repro.workloads.spec import ScenarioSpec

    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(out, "results.jsonl")) as fh:
        meta = json.loads(fh.readline())
    specs = [ScenarioSpec.from_json(s["spec"]) for s in manifest["scenarios"]]
    assert meta["campaign_hash"] == sweep_hash(manifest["name"], specs)


def _summary_snippet(out: str) -> None:
    """The interrupt job's check that the rows re-aggregate to the trailer."""
    from repro.metrics.sweep import summarize_results_file

    path = os.path.join(out, "results.jsonl")
    with open(path) as fh:
        trailer = json.loads(fh.readlines()[-1])
    trailer.pop("type")
    assert summarize_results_file(path) == trailer


def _e2e_timed(tmp: str) -> None:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    try:
        import passes
        import workloads

        for name in sorted(workloads.WORKLOADS):
            work = os.path.join(tmp, name)
            os.makedirs(work)
            passes.main([
                "--workload", name, "--seed", "0", "--scale", "0.05",
                "--mode", "timed", "--spawned", str(time.time()), "--tmp", work,
            ])
    finally:
        sys.path.remove(str(ROOT / "benchmarks" / "e2e"))


def _examples(tmp: str) -> None:
    for script in sorted((ROOT / "examples").glob("*.py")):
        argv = [str(script)]
        if script.stem == "shrink_demo":
            argv.append(os.path.join(tmp, "repro.json"))
        saved = sys.argv
        sys.argv = argv
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (None, 0):
                raise
        finally:
            sys.argv = saved


def _benchmarks(tmp: str) -> None:
    """CI's smoke-benchmark job: every ``bench_*.py`` but the kill ledger,
    untimed, with the convoy traces exported."""
    import pytest

    scripts = sorted(
        str(path) for path in (ROOT / "benchmarks").glob("bench_*.py")
        if path.name != "bench_explore.py"
    )
    status = pytest.main(
        [*scripts, "-q", "--benchmark-disable", "-p", "no:cacheprovider",
         f"--rootdir={ROOT}", f"--trace-dir={os.path.join(tmp, 'traces')}"]
    )
    if status != 0:
        raise RuntimeError(f"benchmarks exited {status}")


def lanes(tmp: str) -> List[Tuple[str, Callable[[], None]]]:
    """``(name, thunk)`` per product lane, in the order they run."""

    def out(name: str) -> str:
        return os.path.join(tmp, name)

    cache = out("nemesis-cache")
    return [
        ("smoke engine", lambda: _campaign()),
        ("smoke 3 backends x 2 seeds",
         lambda: _campaign("--backends", "engine,kernel,async", "--seeds", "2")),
        ("smoke async delay models + backstops", lambda: _campaign(
            "--backends", "async",
            "--delay-model", "uniform:0.1:0.9",
            "--delay-model", "exponential:1.0:8",
            "--delay-model", "slow_pairs:4:1-2,2-1",
            "--stall-window", "400", "--cell-timeout", "60")),
        ("smoke 2 workers", lambda: _campaign(
            "--workers", "2", "--seeds", "2", "--out", out("smoke"))),
        ("nemesis seed 0", lambda: _campaign(
            "--grid", "nemesis", "--seeds", "1", "--cache-dir", cache,
            "--out", out("nemesis"))),
        ("nemesis seed 0 from the cache", lambda: _campaign(
            "--grid", "nemesis", "--seeds", "1", "--cache-dir", cache)),
        ("nemesis seed 30", lambda: _campaign("--grid", "nemesis", "--seeds", "30:31")),
        ("e2e timed passes", lambda: _e2e_timed(out("e2e"))),
        ("examples", lambda: _examples(tmp)),
        ("benchmarks", lambda: _benchmarks(tmp)),
        ("CI snippets", lambda: (_sweep_hash_snippet(out("nemesis")),
                                 _summary_snippet(out("smoke")))),
        ("red: stall window 1",
         lambda: _campaign("--seeds", "1", "--stall-window", "1", status=1)),
        ("red: cell timeout 0.001",
         lambda: _campaign("--seeds", "1", "--cell-timeout", "0.001", status=1)),
    ]


def run_lanes(census: Census, named: Sequence[Tuple[str, Callable[[], None]]]) -> None:
    """Run each lane under the hook; a lane's output is shown only if it raises."""
    for name, thunk in named:
        start = time.perf_counter()
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with census.lane(name):
                    try:
                        thunk()
                    except SystemExit as exc:
                        raise RuntimeError(f"lane {name!r} exited {exc.code}") from exc
        except BaseException:
            sys.stderr.write(sink.getvalue())
            raise
        print(f"  {name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)


def drift(table: Sequence[Def], reached: Set[str], listed: Dict[str, Tuple[str, str]]):
    """``(unlisted unreached, listed but reached, listed but not a def)``."""
    keys = {d.key for d in table}
    unreached = keys - reached
    return (
        sorted(unreached - set(listed)),
        sorted(set(listed) & reached),
        sorted(set(listed) - keys),
    )


def main() -> int:
    table = defs()
    census = Census()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            run_lanes(census, lanes(tmp))
        except HookLost as exc:
            print(f"census: the profile hook was lost, nothing reported: {exc}",
                  file=sys.stderr)
            return 2
        finally:
            os.chdir(cwd)
    reached = census.reached(table)
    unreached = [d for d in table if d.key not in reached]
    print(
        f"census: {len(table) - len(unreached)} of {len(table)} defs reached; "
        f"{len(unreached)} unreached ({sum(d.lines for d in unreached)} lines by def span)"
    )
    unlisted, stale, missing = drift(table, reached, read_list())
    for title, keys in (
        ("unreached and not listed in unreached.txt", unlisted),
        ("listed in unreached.txt but now reached: remove the line", stale),
        ("listed in unreached.txt but no such def", missing),
    ):
        if keys:
            print(f"census: {title}:", *keys, sep="\n  ")
    return 1 if unlisted or stale or missing else 0


if __name__ == "__main__":
    sys.exit(main())
