"""The module census in ARCHITECTURE.md covers every module and example.

Every ``src/repro/**/*.py`` and ``examples/*.py`` has exactly one row; a
kept row names an existing file, its line count and its consumer, a
deleted row a path that is gone. A new module fails here until its row
exists, and a changed one until its count does. Being registered as a
scheme is not a consumer, every document the code cites and every script
cited anywhere exists, and a claim row names the ledger rows that measure
it. Below modules, every public function or class has a reader outside
``tests/`` or a line in the census's list of names read only by tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(
    r"\| `(?P<path>[^`]+)` \| (?P<lines>\d+) \| (?P<consumer>.*) \| (?P<status>kept|deleted) \|"
)


def rows() -> list[tuple[str, str, str, int]]:
    text = (ROOT / "ARCHITECTURE.md").read_text()
    section = text.split("\n## Module census\n")[1].split("\n## ")[0]
    table = [line for line in section.splitlines() if line.startswith("| `")]
    matches = [ROW.fullmatch(line) for line in table]
    assert all(matches), [line for line, match in zip(table, matches) if not match]
    return [
        (m["path"], m["consumer"].strip(), m["status"], int(m["lines"]))
        for m in matches
    ]


def test_kept_rows_count_the_file_lines():
    counts = {
        path: (lines, len((ROOT / path).read_text().splitlines()))
        for path, _, status, lines in rows()
        if status == "kept"
    }
    stale = {path: pair for path, pair in counts.items() if pair[0] != pair[1]}
    assert stale == {}, "path: (census lines, file lines)"


def test_every_module_and_example_has_exactly_one_row():
    paths = [path for path, *_ in rows()]
    assert len(paths) == len(set(paths)), "a path has two rows"
    files = {
        str(path.relative_to(ROOT))
        for path in [*(ROOT / "src/repro").rglob("*.py"), *(ROOT / "examples").glob("*.py")]
    }
    kept = {path for path, _, status, _ in rows() if status == "kept"}
    assert sorted(files - kept) == [], "modules without a census row"
    assert sorted(kept - files) == [], "kept rows naming no file"


def test_kept_rows_name_a_consumer_and_deleted_rows_are_gone():
    for path, consumer, status, _ in rows():
        if status == "kept":
            assert (ROOT / path).is_file(), path
            assert consumer and not consumer.startswith("none"), path
        else:
            assert not (ROOT / path).exists(), path


def test_registration_is_not_a_consumer():
    """A scheme module is kept by the table that reads its label."""
    from repro.compression import available_schemes, make_compressor

    kept = {path: consumer for path, consumer, status, _ in rows() if status == "kept"}
    assert [p for p, c in kept.items() if "compression/registry.py" in c] == []
    for name in available_schemes():
        module = type(make_compressor(name)).__module__
        path = f"src/{module.replace('.', '/')}.py"
        assert re.search(r"\bTable [12]\b", kept[path]), (name, path)


def test_documents_cited_by_the_code_exist():
    cited = {
        (str(path.relative_to(ROOT)), name)
        for folder in ("src", "benchmarks", "examples")
        for path in (ROOT / folder).rglob("*.py")
        for name in re.findall(r"[\w./-]+\.md\b", path.read_text())
    }
    assert cited, "no citation found: the pattern is broken"
    assert sorted(c for c in cited if not (ROOT / c[1]).is_file()) == []


#: Every text that names a script: the code, the tests, the architecture
#: notes (less the census's deleted rows, which name what is gone) and the
#: verification recipes kept with the repo.
CITING = (
    *(ROOT / "src").rglob("*.py"),
    *(ROOT / "tests").rglob("*.py"),
    *(ROOT / "benchmarks").glob("*.py"),
    *(ROOT / "examples").glob("*.py"),
    ROOT / "ARCHITECTURE.md",
    *ROOT.glob(".*/skills/*/SKILL.md"),
)


def test_scripts_cited_anywhere_exist():
    cited = set()
    for path in CITING:
        text = re.sub(r"(?m)^\| `.*\| deleted \|$", "", path.read_text())
        for name in re.findall(r"\b((?:benchmarks|examples)/\w+\.py|bench_\w+\.py)\b", text):
            script = name if "/" in name else f"benchmarks/{name}"
            cited.add((str(path.relative_to(ROOT)), script))
    assert cited, "no citation found: the pattern is broken"
    assert sorted(c for c in cited if not (ROOT / c[1]).is_file()) == []


def test_claim_rows_name_ledger_rows():
    """A module kept for a paper claim names the ledger row that measures it
    (``benchmarks/claims.py``; ARCHITECTURE.md, "Claims ledger")."""
    from test_claims import claims as ledger

    ids = {claim.id for claim in ledger.LEDGER}
    claims = {p: c for p, c, status, _ in rows() if status == "kept" and c.startswith("claim:")}
    assert claims, "no claim row found"
    for path, consumer in claims.items():
        named = re.findall(r"`([a-z0-9_]+\.[a-z0-9_.]+)`", consumer)
        assert named and set(named) <= ids, (path, named)


#: Where a public name's reader may live: anywhere but ``tests/``.
READERS = ("src", "perf", "benchmarks", "examples")
#: A line of the census's "Public names read only by tests" list.
TEST_ONLY = re.compile(r"- `(?P<name>repro\.[\w.]+)`: (?P<reason>.+)")


def public_names() -> set[str]:
    """``repro.module.name`` of every public module-level def and class."""
    names = set()
    for path in (ROOT / "src/repro").rglob("*.py"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    names.add(f"{module}.{node.name}")
    return names


def read_names() -> set[str]:
    """Every name loaded, and every attribute read, outside ``tests/``."""
    read = set()
    for folder in READERS:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    return read


def test_every_public_name_has_a_reader_or_a_reason():
    section = (ROOT / "ARCHITECTURE.md").read_text().split("\n## Module census\n")[1]
    section = section.split("\n## ")[0].split("\n### Public names read only by tests\n")[1]
    listed = {m["name"] for m in map(TEST_ONLY.fullmatch, section.splitlines()) if m}
    assert listed, "no test-only name found: the list or its pattern is broken"
    read = read_names()
    unread = {name for name in public_names() if name.rsplit(".", 1)[1] not in read}
    assert sorted(unread - listed) == [], "public names no code outside tests reads"
    assert sorted(listed - unread) == [], "listed names that are read or gone"
