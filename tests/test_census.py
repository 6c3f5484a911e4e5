"""The module census in ARCHITECTURE.md covers every module and example.

Every ``src/repro/**/*.py`` and ``examples/*.py`` has exactly one row; a
kept row names an existing file, its line count and its consumer, a
deleted row a path that is gone. A new module fails here until its row
exists, and a changed one until its count does.
"""

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
