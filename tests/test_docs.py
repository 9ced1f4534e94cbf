"""Documentation hygiene: docstring presence and markdown link validity.

Run standalone as ``make docs-check``; also part of the default suite.
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

MARKDOWN_FILES = sorted(
    list(REPO_ROOT.glob("*.md")) + list((REPO_ROOT / "docs").glob("*.md"))
)

# [text](target) — target captured; images share the same syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Fenced code blocks must not contribute false links.
_FENCE = re.compile(r"^(```|~~~)")

_EXTERNAL = ("http://", "https://", "mailto:")


def _module_files():
    return sorted(SRC_ROOT.rglob("*.py"))


@pytest.mark.parametrize(
    "path", _module_files(), ids=lambda p: str(p.relative_to(SRC_ROOT))
)
def test_every_module_has_a_docstring(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree), (
        f"{path.relative_to(REPO_ROOT)} is missing a module docstring"
    )


def _markdown_links(path):
    """(line_number, target) pairs outside fenced code blocks."""
    links = []
    fenced = False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if _FENCE.match(line.strip()):
            fenced = not fenced
            continue
        if fenced:
            continue
        for match in _LINK.finditer(line):
            links.append((number, match.group(1)))
    return links


@pytest.mark.parametrize("path", MARKDOWN_FILES, ids=lambda p: p.name)
def test_intra_repo_markdown_links_resolve(path):
    broken = []
    for number, target in _markdown_links(path):
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            broken.append(f"{path.name}:{number} -> {target}")
    assert not broken, "broken intra-repo links:\n" + "\n".join(broken)


def test_docs_exist_and_are_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for name in (
        "docs/ARCHITECTURE.md",
        "docs/OBSERVABILITY.md",
        "docs/WAREHOUSE.md",
        "docs/LONGITUDINAL.md",
        "docs/SCENARIOS.md",
    ):
        assert (REPO_ROOT / name).exists(), f"{name} is missing"
        assert name in readme, f"README.md does not link {name}"


def _dictionary_sections(doc):
    """Each ``### `table` …`` section of a data dictionary: its
    ``| `column` | TYPE |`` rows, in order."""
    sections, rows = {}, None
    for line in doc.splitlines():
        if line.startswith("#"):
            heading = re.match(r"###+ `(\w+)`", line)
            rows = sections.setdefault(heading.group(1), []) if heading else None
        elif rows is not None:
            cell = re.match(r"\| `(\w+)` \| ([A-Z]+) \|", line)
            if cell:
                rows.append(cell.groups())
    return sections


def test_warehouse_doc_matches_schema():
    """docs/WAREHOUSE.md and repro.warehouse.schema must agree, both ways.

    Every table in the schema module has a section in the data
    dictionary whose column rows are its columns, in order, with their
    types, and every section names a table of the schema — so a renamed,
    added or dropped column cannot leave the docs silently stale.  Every
    ``stg_*``/``mart_*`` name the prose mentions has to exist too.
    """
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.warehouse.schema import TABLES
    finally:
        sys.path.pop(0)

    doc = (REPO_ROOT / "docs" / "WAREHOUSE.md").read_text(encoding="utf-8")
    schema = {
        name: [(column.name, column.type) for column in table.columns]
        for name, table in TABLES.items()
    }
    assert _dictionary_sections(doc) == schema

    documented = set(re.findall(r"`((?:stg|mart)_[a-z0-9_]+)`", doc))
    # QA check names (e.g. mart_equivalence) share the prefix but are
    # not tables.
    phantom = sorted(documented - set(TABLES) - {"mart_equivalence"})
    assert not phantom, f"docs/WAREHOUSE.md mentions unknown tables: {phantom}"


def test_scenarios_doc_matches_path_profiles():
    """docs/SCENARIOS.md and repro.netsim.paths must agree, both ways.

    Every catalogue profile has to appear (backticked) in the
    profile-catalogue section, and every backticked name that section
    lists has to exist in ``PATH_PROFILES`` — so a renamed or dropped
    profile cannot leave the operator-facing catalogue silently stale.
    """
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.netsim.paths import PATH_PROFILES
    finally:
        sys.path.pop(0)

    doc = (REPO_ROOT / "docs" / "SCENARIOS.md").read_text(encoding="utf-8")
    section = doc.split("## Profile catalogue", 1)[1].split("\n## ", 1)[0]
    # Catalogue rows lead with the backticked profile name.
    documented = set(re.findall(r"^\| `([a-z0-9-]+)`", section, flags=re.M))
    assert documented == set(PATH_PROFILES), (
        f"profile catalogue drift: doc has {sorted(documented)},"
        f" PATH_PROFILES has {sorted(PATH_PROFILES)}"
    )


def test_longitudinal_doc_matches_ledger_schema():
    """docs/LONGITUDINAL.md must document the ledger and timeline layer.

    Both run-ledger tables and every column of the ledger and timeline
    tables have to appear (backticked) in the document, so a schema
    change cannot leave the operator-facing contract silently stale.
    """
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.warehouse.schema import LEDGER_TABLES, TABLES, TIMELINE_TABLES
    finally:
        sys.path.pop(0)

    doc = (REPO_ROOT / "docs" / "LONGITUDINAL.md").read_text(encoding="utf-8")
    missing = []
    for name in (*LEDGER_TABLES, *TIMELINE_TABLES):
        if f"`{name}`" not in doc:
            missing.append(name)
        for column in TABLES[name].columns:
            if f"`{column.name}`" not in doc:
                missing.append(f"{name}.{column.name}")
    assert not missing, (
        "ledger/timeline names missing from docs/LONGITUDINAL.md: "
        + ", ".join(missing)
    )
