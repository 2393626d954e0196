"""Every ``src/repro`` module is reached by a run, a CLI or a checked claim.

The graph is read from source (AST only, nothing imported): an edge is
an ``import`` or ``from ... import`` anywhere in a module, lazy imports
inside functions included.  Its roots are the campaign CLI
(``repro.campaign.__main__``), ``repro.workloads.runner`` (the module of
``run_scenario``), the ``repro`` package and the tier-1 tests named in
DESIGN.md §5's "Checked by" column.  A module none of them reaches backs no run and no
paper claim.

The graph is only honest if a package import pulls in nothing: so no
sub-package ``__init__.py`` may import, and ``repro`` itself re-exports
exactly what the README quickstart and ``examples/`` import from it.
"""

import ast
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_ROOTS = (
    "repro",
    "repro.campaign.__main__",
    "repro.workloads.runner",
)


def modules(src=SRC):
    """``{dotted name: path}`` of every module and package under ``src``."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def imported(tree, known):
    """The modules of ``known`` that ``tree`` imports, at any depth."""
    hits = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits.update(alias.name for alias in node.names if alias.name in known)
        elif isinstance(node, ast.ImportFrom) and node.module in known:
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                hits.add(sub if sub in known else node.module)
    return hits


def reached(roots, known):
    """Every module an import chain from ``roots`` loads (parents included)."""
    edges = {
        name: imported(ast.parse(path.read_text()), known)
        for name, path in known.items()
    }
    seen, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        parts = name.split(".")
        stack += [".".join(parts[:i]) for i in range(1, len(parts))]
        stack += edges.get(name, ())
    return seen


def checked_by():
    """The test paths in DESIGN.md §5's "Checked by" column, one per row."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 5. ", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    column = header.index("Checked by")
    tests = []
    for row in rows[2:]:
        cell = row.strip("|").split("|")[column]
        cited = re.findall(r"`([^`]+)`", cell)
        assert len(cited) == 1, f"DESIGN.md §5 row needs one test: {row}"
        tests.append(cited[0])
    return tests


def test_every_module_is_reached():
    known = modules()
    roots = set(CLI_ROOTS)
    for test in checked_by():
        path = ROOT / test
        assert path.is_file() and path.name.startswith("test_"), test
        roots |= imported(ast.parse(path.read_text()), known)
    seen = reached(roots, known)
    orphans = sorted(
        name for name, path in known.items()
        if path.name != "__init__.py" and name not in seen
    )
    assert not orphans, "reached by no CLI, run or checked claim: " + ", ".join(orphans)


def test_sub_packages_import_nothing():
    offenders = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((SRC / "repro").glob("*/__init__.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not offenders, "sub-package __init__ imports:\n" + "\n".join(offenders)


def test_the_package_surface_is_what_the_quickstart_and_examples_import():
    used = set()
    sources = [path.read_text() for path in sorted((ROOT / "examples").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                used.update(alias.name for alias in node.names)
    assert set(repro.__all__) == used | {"__version__"}


def test_an_orphan_and_a_lazy_import_are_seen(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sub" / "__init__.py").write_text("")
    (pkg / "sub" / "a.py").write_text("def f():\n    from repro.sub import b\n")
    (pkg / "sub" / "b.py").write_text("")
    (pkg / "sub" / "orphan.py").write_text("")
    known = modules(tmp_path)
    seen = reached({"repro.sub.a"}, known)
    assert seen == {"repro", "repro.sub", "repro.sub.a", "repro.sub.b"}
