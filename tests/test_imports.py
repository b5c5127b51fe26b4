"""Every imported name is used.

No linter is installed, so this stands in for the unused-import check over
the package and its tests. ``__init__.py`` files are skipped, since their
imports are the package's re-exports, and so is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/trimformer", "tests")
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


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np.pi, d)\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 3)"]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []
