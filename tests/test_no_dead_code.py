"""Every function, method and class defined in ``src/higgsres`` has a reader.

An ``ast`` walk collects the names the package defines (functions,
methods and classes at any depth; dunders are exempt, because Python
calls them) and the names that the package and the benchmark scripts
(``perfbench/*.py``) read: every identifier loaded, every attribute
loaded, and every identifier inside a string that is not a docstring
(the benchmark's tracer names what it wraps as ``"solver.solve_system"``).
A definition, an assignment and an import are not reads, except that a
name imported by ``higgsres/__init__.py`` is the package's interface and
counts as read.  Tests are not readers: a name only a test reads belongs
in ``tests/helpers.py``.

The check goes by name, so it cannot catch a dead method that shares its
name with a live one: ``AffineSpace.particular`` had no reader once
sampling read coefficients, but ``TwistedSystem.particular`` had, and
this check passed it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "higgsres"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


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


def _definitions():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, _DEFINITIONS) and not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, f"{path.relative_to(ROOT)}:{node.lineno}"


def _read_names() -> set:
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        names.update(_reads(_parse(path)))
    for node in ast.walk(_parse(PACKAGE / "__init__.py")):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_definition_has_a_reader():
    read = _read_names()
    unread = [f"{where} {name}" for name, where in _definitions() if name not in read]
    assert not unread, "defined in src/higgsres but read by no module there or in perfbench:\n" + "\n".join(unread)


def test_the_walk_sees_reads_in_code_and_strings():
    """The reader finds a load, an attribute and a name in a string, and
    skips docstrings, definitions and assignments."""
    tree = ast.parse(
        'def f():\n    """g"""\n    h = k.m\n    return "solver.solve_system"\n'
    )
    assert set(_reads(tree)) == {"k", "m", "solver", "solve_system"}
