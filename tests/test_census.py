"""The module census in ARCHITECTURE.md covers every module and example.

Every ``src/repro/**/*.py`` and ``examples/*.py`` has exactly one row; a
kept row names an existing file, its line count and its consumer, a
deleted row a path that is gone. A new module fails here until its row
exists, and a changed one until its count does. Being registered as a
scheme is not a consumer, every document the code cites and every script
cited anywhere exists, and a claim row names the ledger rows that measure
it. Below modules, every public function or class, every public method or
property of a public class, every defaulted parameter of those and every
defaulted field of a public dataclass has a reader (code that sets it, for
a parameter or a field) outside ``tests/``, or a line in the census's list
for its kind.
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
#: A line of one of the census's lists of names only tests use.
TEST_ONLY = re.compile(r"- `(?P<name>repro\.[\w.]+(?:\(\w+=\))?)`: (?P<reason>.+)")
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions():
    """``(repro.module, node)`` of every public module-level def and class."""
    for path in sorted((ROOT / "src/repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (*FUNCTION, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield module, node


def public_names() -> set[str]:
    """``repro.module.name`` of every public module-level def and class."""
    return {f"{module}.{node.name}" for module, node in public_definitions()}


def public_members() -> set[str]:
    """``repro.module.Class.member`` of every public method and property of a
    public class."""
    return {
        f"{module}.{node.name}.{item.name}"
        for module, node in public_definitions()
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, FUNCTION) and not item.name.startswith("_")
    }


def reader_trees():
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield ast.parse(path.read_text())


def read_names() -> set[str]:
    """Every name loaded, every attribute read and every string constant (a
    ``getattr`` reads its name so) outside ``tests/``; an ``__all__`` entry
    is a re-export, not a read."""
    read = set()
    for tree in reader_trees():
        exported = {
            id(entry)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for entry in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in exported:
                    read.add(node.value)
    return read


def callables():
    """``(label, callee, def node, bound)`` per public function and per
    public or ``__init__`` method of a public class. A call reaches it
    through ``callee``, the class name for ``__init__``; ``bound`` is whether
    the first parameter is ``self`` / ``cls``."""
    for module, node in public_definitions():
        if not isinstance(node, ast.ClassDef):
            yield f"{module}.{node.name}", node.name, node, False
            continue
        for item in node.body:
            if not isinstance(item, FUNCTION):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
            if item.name == "__init__":
                yield f"{module}.{node.name}", node.name, item, True
            elif not item.name.startswith("_"):
                yield f"{module}.{node.name}.{item.name}", item.name, item, not static


def defaulted_parameters():
    """``(label, callee, parameter, position)`` per defaulted parameter of
    :func:`callables`; ``position`` counts the call's positional arguments
    (``None`` for keyword-only)."""
    for label, callee, fn, bound in callables():
        positional = [*fn.args.posonlyargs, *fn.args.args]
        first = len(positional) - len(fn.args.defaults)
        for index in range(first, len(positional)):
            yield label, callee, positional[index].arg, index - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield label, callee, arg.arg, None


def calls_by_callee() -> dict[str, list[ast.Call]]:
    """Every call outside ``tests/``, by the name it calls (``f`` of ``f()``
    and of ``x.f()``)."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in reader_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def sets(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` can set the parameter (``*`` / ``**`` can set any)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def census_list(title: str) -> set[str]:
    """The names listed under one ``###`` heading of the census."""
    section = (ROOT / "ARCHITECTURE.md").read_text().split("\n## Module census\n")[1]
    section = section.split("\n## ")[0].split(f"\n### {title}\n")[1].split("\n### ")[0]
    return {m["name"] for m in map(TEST_ONLY.fullmatch, section.splitlines()) if m}


def test_every_public_name_has_a_reader_or_a_reason():
    listed = census_list("Public names read only by tests")
    assert listed, "no test-only name found: the list or its pattern is broken"
    read = read_names()
    unread = {name for name in public_names() if name.rsplit(".", 1)[1] not in read}
    assert sorted(unread - listed) == [], "public names no code outside tests reads"
    assert sorted(listed - unread) == [], "listed names that are read or gone"


def test_every_public_member_has_a_reader_or_a_reason():
    """A method or property is read where its name is: an attribute, a
    loaded name or a string (``getattr``). A name another class shares
    hides an unread member; ARCHITECTURE.md's census says so."""
    listed = census_list("Members read only by tests")
    read = read_names()
    unread = {name for name in public_members() if name.rsplit(".", 1)[1] not in read}
    assert sorted(unread - listed) == [], "public members no code outside tests reads"
    assert sorted(listed - unread) == [], "listed members that are read or gone"


def test_every_defaulted_parameter_is_set_outside_tests_or_has_a_reason():
    listed = census_list("Parameters only tests set")
    assert listed, "no test-only parameter found: the list or its pattern is broken"
    calls = calls_by_callee()
    unset = {
        f"{label}({parameter}=)"
        for label, callee, parameter, position in defaulted_parameters()
        if not any(sets(call, parameter, position) for call in calls.get(callee, ()))
    }
    assert sorted(unset - listed) == [], "defaulted parameters no call outside tests sets"
    assert sorted(listed - unset) == [], "listed parameters that are set or gone"


def dataclass_fields():
    """``(label, class, field, position, frozen)`` per defaulted field of a
    public dataclass whose ``__init__`` the decorator writes; ``position``
    counts the constructor's positional arguments."""
    for module, node in public_definitions():
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [ast.unparse(d) for d in node.decorator_list]
        decorator = next((d for d in decorators if "dataclass" in d), None)
        if decorator is None or "init=False" in decorator:
            continue
        own = [
            item
            for item in node.body
            if isinstance(item, ast.AnnAssign) and "ClassVar" not in ast.unparse(item.annotation)
        ]
        for position, item in enumerate(own):
            if item.value is not None:
                label = f"{module}.{node.name}.{item.target.id}"
                yield label, node.name, item.target.id, position, "frozen=True" in decorator


def declared_keys() -> set[str]:
    """The ``ExperimentConfig`` fields a ``**`` mapping with declared keys
    sets: the CLI's ``FIELD_FLAGS`` and what a plan point overlays."""
    from repro.harness.cli import FIELD_FLAGS
    from repro.tuner.space import PLAN_FIELDS, PlanPoint

    overlay = PlanPoint(**dict.fromkeys(PLAN_FIELDS)).config_overrides()
    return set(FIELD_FLAGS) | set(overlay)


def stored_attributes() -> set[str]:
    """Every attribute assigned (``x.a = ...``, ``x.a += ...``) outside ``tests/``."""
    return {
        node.attr
        for tree in reader_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }


def set_fields() -> set[str]:
    """Labels of the fields code outside ``tests/`` sets: by keyword or
    position in a constructor call, by keyword in a ``replace`` or
    ``.scaled`` copy (which names no class, so it sets the field of that
    name on every dataclass), by assignment on a mutable instance, or
    through a declared ``**`` mapping; an ``EngineConfig`` field is set
    when the ``ExperimentConfig`` field it mirrors is."""
    from repro.harness.config import _ENGINE_FIELDS

    calls = calls_by_callee()
    copies = {
        k.arg for name in ("replace", "scaled") for call in calls.get(name, ()) for k in call.keywords
    }
    stored = stored_attributes()
    done = set()
    for label, cls, name, position, frozen in dataclass_fields():
        built = any(
            any(k.arg == name for k in call.keywords)
            or len(call.args) > position
            and not any(isinstance(arg, ast.Starred) for arg in call.args)
            for call in calls.get(cls, ())
        )
        if built or name in copies or not frozen and name in stored:
            done.add(label)
    experiment = "repro.harness.config.ExperimentConfig"
    done |= {f"{experiment}.{name}" for name in declared_keys()}
    done |= {
        f"repro.exchange.engine.EngineConfig.{name}"
        for name, own in _ENGINE_FIELDS.items()
        if f"{experiment}.{own}" in done
    }
    return done


def test_every_defaulted_field_is_set_outside_tests_or_has_a_reason():
    """A ``**`` of unknown keys sets nothing: it would set every field."""
    listed = census_list("Fields only tests set")
    defaulted = {label for label, *_ in dataclass_fields()}
    assert len(defaulted) > 100, "few defaulted fields found: the scan is broken"
    unset = defaulted - set_fields()
    assert sorted(unset - listed) == [], "defaulted fields no code outside tests sets"
    assert sorted(listed - unset) == [], "listed fields that are set or gone"
