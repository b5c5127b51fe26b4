"""Every imported name is used, and every definition is used by code.

No linter is installed, so this stands in for the unused-import check over
the package, its tests and ``tools/``. ``__init__.py`` files are skipped,
since their imports are the package's re-exports, and so is
``from __future__``.

The dead-code check covers the package's top-level functions and classes
and the methods and properties of those classes: each name must be read as
a code identifier (a name, an attribute or an imported name) somewhere in
``src/`` or ``bench/``, ``__init__.py`` re-exports aside. A name that only
tests, docstrings or strings mention counts as unused.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/trimformer", "tests", "tools")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """``name (line n)`` for each name an import binds that no expression
    reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def definitions(source: str) -> list[str]:
    """Top-level function and class names in ``source``, plus the method
    and property names of those classes; dunder methods are left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def identifiers(source: str):
    """Every name, attribute and imported name that ``source`` reads."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)


def unreferenced(package: list[str], code: list[str]) -> list[str]:
    """Names defined in the ``package`` sources that no identifier in the
    ``code`` sources reads."""
    used = {name for source in code for name in identifiers(source)}
    return sorted({name for source in package for name in definitions(source)} - used)


def test_unreferenced_definitions_are_found():
    lib = (
        "def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
        "class Box:\n    def __init__(self):\n        self.n = used()\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.n\n"
    )
    user = 'print(Box().size)\nprint("unused")\n'
    assert unreferenced([lib], [lib, user]) == ["dead", "unused"]
    assert unreferenced([lib], [lib, user, "from lib import dead\n"]) == ["unused"]


def test_every_definition_is_named_elsewhere():
    def sources(*folders):
        return [
            path.read_text(encoding="utf-8")
            for folder in folders
            for path in sorted((ROOT / folder).rglob("*.py"))
            if path.name != "__init__.py"
        ]

    assert unreferenced(sources("src/trimformer"), sources("src", "bench")) == []


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np.pi, d)\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 3)"]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []
