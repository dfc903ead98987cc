"""Every function, method and class defined in ``src/higgsres`` has a
reader, and so has every name a module there imports and every field of
a dataclass there.

An ``ast`` walk collects the names the package defines (functions,
methods and classes at any depth; dunders are exempt, because Python
calls them) and the names that the package and the benchmark scripts
(``perfbench/*.py``) read.  Outside a class, a definition is read by
every identifier loaded, every attribute loaded, and every identifier
inside a string that is not a docstring (the benchmark's tracer names
what it wraps as ``"solver.solve_system"``).  A definition inside a
class is read only through an attribute: an attribute load of its name,
or a string that is exactly its name or a dotted path ending in it.  A
parameter or a word of a message that happens to share a method's name
does not read it.  A definition, an assignment and an import are not
reads, except that a name imported by ``higgsres/__init__.py`` is the
package's interface and counts as read.  Tests are not readers: a name
only a test reads belongs in ``tests/helpers.py``.

The same rules hold for ``tests/helpers.py``, whose readers are the
modules of ``tests``: every name defined there at module level or in a
class is read by some test module.

The check goes by name, so it cannot catch a dead method that shares its
name with a live one: ``AffineSpace.particular`` had no reader once
sampling read coefficients, but ``TwistedSystem.particular`` had, and
this check passed it.

An import is read when the importing module reads the name; an
``__init__.py`` re-exports what it imports, and ``from __future__``
imports are directives, so both are exempt.  A dataclass field is read
when a module of the package or of the benchmark loads an attribute of
that name or names it inside a string (``STATS_COLUMNS`` names ``rows``
and ``cols`` that way).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "higgsres"
TESTS = ROOT / "tests"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DOTTED = re.compile(r"(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _reader_paths() -> list:
    return sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _docstrings(tree: ast.Module) -> set:
    """The ids of the docstring nodes of the module, its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFINITIONS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _reads(tree: ast.Module):
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield from _IDENTIFIER.findall(node.value)


def _member_reads(tree: ast.Module):
    """Every attribute loaded, and the last part of every non-docstring
    string that is a name or a dotted path."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            dotted = _DOTTED.fullmatch(node.value)
            if dotted:
                yield dotted.group(1)


def _definitions(paths):
    """(name, where, in a class) of each definition in ``paths``, dunders aside."""
    for path in paths:
        tree = _parse(path)
        members = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS) and not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, f"{path.relative_to(ROOT)}:{node.lineno}", id(node) in members


def _unread(defined, readers, exports=()) -> list:
    """Each definition in ``defined`` that no module of ``readers`` reads,
    a name the modules ``exports`` import counting as read."""
    read, member_read = set(), set()
    for path in readers:
        tree = _parse(path)
        read.update(_reads(tree))
        member_read.update(_member_reads(tree))
    for path in exports:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                read.update(alias.asname or alias.name for alias in node.names)
    return [
        f"{where} {name}"
        for name, where, member in _definitions(defined)
        if name not in (member_read if member else read)
    ]


def _imports(tree: ast.Module):
    """(bound name, line) of each name the module imports, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _dataclass_fields():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield item.target.id, f"{path.relative_to(ROOT)}:{item.lineno} {node.name}"


def _field_reads(tree: ast.Module):
    """Every attribute loaded and every identifier in a non-docstring string."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield from _IDENTIFIER.findall(node.value)


def test_every_definition_has_a_reader():
    unread = _unread(sorted(PACKAGE.rglob("*.py")), _reader_paths(), [PACKAGE / "__init__.py"])
    assert not unread, "defined in src/higgsres but read by no module there or in perfbench:\n" + "\n".join(unread)


def test_every_test_helper_has_a_reader():
    unread = _unread([TESTS / "helpers.py"], sorted(TESTS.glob("*.py")))
    assert not unread, "defined in tests/helpers.py but read by no test module:\n" + "\n".join(unread)


def test_the_walk_sees_reads_in_code_and_strings():
    """The reader finds a load, an attribute and a name in a string, and
    skips docstrings, definitions and assignments."""
    tree = ast.parse(
        'def f():\n    """g"""\n    h = k.m\n    return "solver.solve_system"\n'
    )
    assert set(_reads(tree)) == {"k", "m", "solver", "solve_system"}


def test_the_member_walk_sees_only_attributes():
    """A method is read by an attribute load or a string naming it, bare
    or as a dotted path, and not by a plain name, a parameter or a word
    of a message."""
    tree = ast.parse(
        'def f(num):\n    """g"""\n    h = k.m\n    raise E("an algebra element")\n'
        '    return num, "solver.solve_system", "p"\n'
    )
    assert set(_member_reads(tree)) == {"m", "solve_system", "p"}


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        read = set(_reads(tree))
        unread += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in _imports(tree) if name not in read]
    assert not unread, "imported in src/higgsres but never read there:\n" + "\n".join(unread)


def test_every_dataclass_field_has_a_reader():
    read = set()
    for path in _reader_paths():
        read.update(_field_reads(_parse(path)))
    unread = [f"{where}.{name}" for name, where in _dataclass_fields() if name not in read]
    assert not unread, "dataclass fields that no module in src/higgsres or perfbench reads:\n" + "\n".join(unread)


def test_the_import_and_field_walks_see_what_they_check():
    """An import read in an annotation counts and one only re-bound does
    not; a field loaded or named in a string counts, and one only
    assigned or met as a plain name does not."""
    tree = ast.parse(
        "from __future__ import annotations\nimport a.b\nfrom c import d, e as f\n"
        "def g(x: d) -> None:\n    a.h = 1\n"
    )
    read = set(_reads(tree))
    assert [(name, name in read) for name, _ in _imports(tree)] == [("a", True), ("d", True), ("f", False)]
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass R:\n    x: int = 0\n    y: int = 0\n    w: int = 0\n    v: int = 0\n"
        "r.x\nr.w = 1\nv\nprint('y z')\n"
    )
    assert _is_dataclass(tree.body[0])
    read = set(_field_reads(tree))
    assert [(item.target.id, item.target.id in read) for item in tree.body[0].body] == [
        ("x", True), ("y", True), ("w", False), ("v", False)
    ]
