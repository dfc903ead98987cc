"""Every ``RatFunc`` in ``src/higgsres`` is built by ``RatFunc(...)`` or
``RatFunc._raw``.

The benchmark counts ``field.RatFunc.built`` by wrapping exactly those two
(``perfbench/tracer.py``), so a germ made any other way would do the work
of a ``RatFunc`` and not be counted, and the count would fall with no
saving behind it.  An ``ast`` walk of the package finds every call of a
``__new__`` (``object.__new__(cls)``, ``cls.__new__(cls)``,
``RatFunc.__new__(RatFunc)``): inside the class ``RatFunc`` the only one
is in ``_raw``, and none outside it names ``RatFunc``.  ``copy`` makes
objects without ``__init__`` too, so the package must not import it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "higgsres"


class _NewCalls(ast.NodeVisitor):
    """(file, enclosing definitions, names the call reads) of each ``__new__`` call."""

    def __init__(self, path: Path):
        self.path = path
        self.scope = []
        self.found = []
        self.imports = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Import(self, node):
        self.imports += [alias.name for alias in node.names]

    def visit_ImportFrom(self, node):
        self.imports.append(node.module or "")

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "__new__":
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            self.found.append((self.path.name, ".".join(self.scope), names))
        self.generic_visit(node)


def _walk() -> list:
    visitors = []
    for path in sorted(PACKAGE.rglob("*.py")):
        visitor = _NewCalls(path)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        visitors.append(visitor)
    return visitors


def test_only_init_and_raw_build_ratfuncs():
    visitors = _walk()
    calls = [call for v in visitors for call in v.found]
    inside = [(f, where) for f, where, _ in calls if where.split(".")[0] == "RatFunc"]
    assert inside == [("field.py", "RatFunc._raw")]
    naming = [(f, where) for f, where, names in calls if "RatFunc" in names and where != "RatFunc._raw"]
    assert naming == []
    # the walk sees the other classes' bare constructors, so it is not vacuous
    assert {where for _, where, _ in calls} >= {"GaussRat.from_triple", "LoopGroupElement._bare"}
    assert [v.path.name for v in visitors if "copy" in v.imports] == []
