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
"""

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
EXTENSION = re.compile(r"\.(py|json|jsonl|md|yml|yaml|toml|txt)$")


def citations(doc):
    """``(line number, citation)`` for every path-like span of ``doc``."""
    text = FENCE.sub(lambda m: "\n" * m.group().count("\n"), (ROOT / doc).read_text())
    for lineno, line in enumerate(text.splitlines(), 1):
        for span in SPAN.findall(line):
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


def test_a_stale_citation_is_caught(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "a.py").write_text("class Present:\n    def test_x(self):\n        pass\n")
    bases = (tmp_path,)
    assert resolves("tests/a.py::Present::test_x[case]", bases)
    assert resolves("tests/*.py", bases)
    assert not resolves("tests/a.py::Absent", bases)
    assert not resolves("tests/b.py", bases)
