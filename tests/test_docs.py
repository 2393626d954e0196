"""Every repo path the documents cite resolves.

A backticked span in DESIGN.md, EXPERIMENTS.md, README.md or the verify
skill is a *citation* when it reads as a path: it holds a ``/`` and
either ends in a file extension, ends in ``/``, or starts at a top-level
entry of the repo.  A citation resolves when it names an existing file
or directory (a glob: at least one) under the repo root or, for module
paths like ``runtime/scheduler.py``, under ``src/repro/`` (``repro/...``
under ``src/``); ``path::name[::name]`` additionally needs each ``name``
defined in that file.  Placeholders (an all-caps segment, as in
``DIR/manifest.json``) are skipped.  ROADMAP.md is not checked: it names
files that do not exist yet.

Code in the same documents runs: every ``from repro... import ...``
inside a fenced block imports, every dotted ``repro.…`` name in a
backticked span imports (the longest module prefix, then attributes),
and README's quickstart block executes.
A docstring's ``:class:`` / ``:mod:`` / ``:func:`` / ``:meth:`` /
``:attr:`` reference to ``repro.…`` in ``src/`` names something that
imports, and every ``benchmarks/bench_*.py`` is named in the CI
workflow (a script no job runs checks nothing).  Every ``--flag`` those
documents or the two workflows pass to ``python -m repro.campaign`` is
one its parser accepts: no PR job runs the nightly soak, so a stale
flag there would break unseen.
"""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md")
BASES = (ROOT, ROOT / "src" / "repro", ROOT / "src")
TOP_LEVEL = {entry.name for entry in ROOT.iterdir()}

FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`\n]+)`")
PATH = re.compile(r"[\w.\-/*]+")
IMPORT = re.compile(r"^[ \t]*from (repro[\w.]*) import (\([^)]*\)|[\w, ]+)", re.M)
EXTENSION = re.compile(r"\.(py|json|jsonl|md|yml|yaml|toml|txt)$")


def spans(text):
    """``(line number, span)`` for every backticked span outside fences."""
    text = FENCE.sub(lambda m: "\n" * m.group().count("\n"), text)
    for lineno, line in enumerate(text.splitlines(), 1):
        for span in SPAN.findall(line):
            yield lineno, span


def citations(doc):
    """``(line number, citation)`` for every path-like span of ``doc``."""
    for lineno, span in spans((ROOT / doc).read_text()):
        path = span.partition("::")[0]
        if not PATH.fullmatch(path) or "/" not in path or path.startswith("/"):
            continue
        if not (
            EXTENSION.search(path)
            or path.endswith("/")
            or path.split("/")[0] in TOP_LEVEL
        ):
            continue
        if any(part.isupper() for part in path.split("/")):
            continue
        yield lineno, span


def resolves(citation, bases=BASES):
    path, *names = citation.split("::")
    hits = [hit for base in bases for hit in base.glob(path.rstrip("/"))]
    if not hits:
        return False
    if not names:
        return True
    source = hits[0].read_text()
    return all(
        re.search(
            rf"^\s*(def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*=",
            source,
            re.M,
        )
        for name in (n.partition("[")[0] for n in names)
    )


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_resolve(doc):
    found = list(citations(doc))
    assert found, f"{doc} cites no path: the extractor is broken"
    stale = [f"{doc}:{lineno}: {span}" for lineno, span in found if not resolves(span)]
    assert not stale, "stale citations:\n" + "\n".join(stale)


def fenced_imports(doc):
    """``(line number, statement)`` for each repro import in a fenced block."""
    text = (ROOT / doc).read_text()
    for fence in FENCE.finditer(text):
        for hit in IMPORT.finditer(fence.group()):
            lineno = text.count("\n", 0, fence.start() + hit.start(1)) + 1
            yield lineno, f"from {hit.group(1)} import {hit.group(2)}"


def test_documented_imports_resolve():
    found = [(doc, *hit) for doc in DOCS for hit in fenced_imports(doc)]
    assert found, "no fenced repro import found: the extractor is broken"
    broken = []
    for doc, lineno, statement in found:
        try:
            exec(statement, {})
        except ImportError as exc:
            broken.append(f"{doc}:{lineno}: {exc}")
    assert not broken, "documented imports that fail:\n" + "\n".join(broken)


def test_readme_quickstart_runs(capsys):
    quickstart = (ROOT / "README.md").read_text().split("## Quickstart", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", quickstart, re.M | re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
    assert capsys.readouterr().out


ROLE = re.compile(r":(?:class|mod|func|meth|attr):`~?(repro\.[\w.]+)`")


def cross_references():
    """``(file:line, dotted target)`` of every ``repro.…`` role in ``src/``."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text()
        for hit in ROLE.finditer(text):
            lineno = text.count("\n", 0, hit.start()) + 1
            yield f"{path.relative_to(ROOT)}:{lineno}", hit.group(1)


def importable(target):
    """Whether ``target`` is a module, or a module's attribute chain."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_docstring_cross_references_import():
    found = list(cross_references())
    assert found, "no cross-reference found: the extractor is broken"
    stale = [f"{where}: {target}" for where, target in found if not importable(target)]
    assert not stale, "stale cross-references:\n" + "\n".join(stale)


DOTTED = re.compile(r"(?<![\w./])repro(?:\.\w+)+")


def dotted_names(text):
    """``(line number, name)`` for each dotted ``repro.…`` name in a span."""
    for lineno, span in spans(text):
        for name in DOTTED.findall(span):
            yield lineno, name


def test_documented_names_import():
    found = [
        (doc, *hit) for doc in DOCS for hit in dotted_names((ROOT / doc).read_text())
    ]
    assert len(found) > 40, "few dotted repro names found: the extractor is broken"
    stale = [f"{doc}:{lineno}: {name}" for doc, lineno, name in found if not importable(name)]
    assert not stale, "documented names that do not import:\n" + "\n".join(stale)


def test_a_stale_documented_name_is_caught():
    text = (
        "`repro.detectors.mu.Mu.query` and\n"
        "`python -m repro.campaign --grid nemesis`, `x.repro.no`\n"
        "```\nrepro.inside.a.fence\n```\n"
        "`repro.detectors.mu.Mu.as_conjunction(...)`\n"
    )
    assert list(dotted_names(text)) == [
        (1, "repro.detectors.mu.Mu.query"),
        (2, "repro.campaign"),
        (6, "repro.detectors.mu.Mu.as_conjunction"),
    ]
    assert importable("repro.detectors.mu.Mu.query")
    assert not importable("repro.detectors.mu.Mu.as_conjunction")
    assert not importable("repro.detectors.restriction.Restricted")


def test_code_cites_no_roadmap_item():
    # Item numbers outlive their meaning; code cites DESIGN.md or
    # EXPERIMENTS.md sections instead.
    cited = []
    for tree in ("src", "tests"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            text = path.read_text()
            for hit in re.finditer(r"ROADMAP\s+item", text):
                lineno = text.count("\n", 0, hit.start()) + 1
                cited.append(f"{path.relative_to(ROOT)}:{lineno}")
    assert not cited, "roadmap citations:\n" + "\n".join(cited)


def test_every_bench_script_runs_in_ci():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    scripts = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    assert scripts, "no bench script found: the glob is broken"
    unrun = [p.name for p in scripts if f"benchmarks/{p.name}" not in ci]
    assert not unrun, f"bench scripts no CI job runs: {unrun}"


COMMAND = re.compile(r"python -m (repro\.campaign)(?![\w.])")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
COMMAND_END = re.compile(r"[`;|&]| #")
EXPRESSION = re.compile(r"\$\{\{.*?\}\}")
CLI_SOURCES = (".github/workflows/ci.yml", ".github/workflows/explore-soak.yml", *DOCS)


def command_flags(text):
    """``(line number, module, flag)`` for each flag a command passes.

    A command runs from ``python -m repro.…`` to the first backtick,
    ``;``, ``|``, ``&`` or `` #``, and on over the next line while the
    line ends in ``\\`` or the next one starts with ``--`` (a wrapped
    inline span, a folded YAML block).  A workflow's ``${{ … }}``
    expression is one argument, whatever it holds.
    """
    lines = [EXPRESSION.sub("X", line) for line in text.splitlines()]
    for lineno, line in enumerate(lines, 1):
        for hit in COMMAND.finditer(line):
            tail, at = line[hit.end():], lineno
            while True:
                stop = COMMAND_END.search(tail)
                command = tail[: stop.start()] if stop else tail
                yield from ((at, hit.group(1), flag) for flag in FLAG.findall(command))
                following = lines[at].lstrip() if at < len(lines) else ""
                if stop or not (command.rstrip().endswith("\\") or following.startswith("--")):
                    break
                tail, at = following, at + 1


def parser_flags(module):
    """The option strings ``python -m module --help`` lists."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        importlib.import_module(f"{module}.__main__").main(["--help"])
    return set(FLAG.findall(out.getvalue()))


def test_documented_cli_flags_exist():
    found = [
        (source, *hit)
        for source in CLI_SOURCES
        for hit in command_flags((ROOT / source).read_text())
    ]
    assert found, "no CLI flag found: the extractor is broken"
    known = {"repro.campaign": parser_flags("repro.campaign")}
    stale = [
        f"{source}:{lineno}: {module} {flag}"
        for source, lineno, module, flag in found
        if flag not in known[module]
    ]
    assert not stale, "flags the parser does not accept:\n" + "\n".join(stale)


def test_a_stale_cli_flag_is_caught():
    text = (
        "run: >-\n  python -m repro.campaign\n  --seeds ${{ a || b }}\n  --no-such-flag b.json\n"
        "x `python -m repro.campaign --grid nemesis\n--seeds 5` and --not-a-flag\n"
        "python -m repro.campaign \\\n    --out D  # --comment\n"
    )
    assert list(command_flags(text)) == [
        (3, "repro.campaign", "--seeds"),
        (4, "repro.campaign", "--no-such-flag"),
        (5, "repro.campaign", "--grid"),
        (6, "repro.campaign", "--seeds"),
        (8, "repro.campaign", "--out"),
    ]
    assert "--no-such-flag" not in parser_flags("repro.campaign")


def test_a_stale_citation_is_caught(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "a.py").write_text("class Present:\n    def test_x(self):\n        pass\n")
    bases = (tmp_path,)
    assert resolves("tests/a.py::Present::test_x[case]", bases)
    assert resolves("tests/*.py", bases)
    assert not resolves("tests/a.py::Absent", bases)
    assert not resolves("tests/b.py", bases)


def test_a_stale_cross_reference_is_caught():
    assert importable("repro.substrates.consensus.ConsensusAutomaton")
    assert importable("repro.runtime.async_driver.EventLoop.call_at")
    assert not importable("repro.substrates.consensus.LeaderConsensus")
    assert not importable("repro.no_such_module")
