"""No module under ``src/`` imports a name it does not use.

No linter is installed, so this AST check stands in for one.  A name
counts as used when it appears as a name anywhere in the module,
including inside a string that parses as an expression (a quoted
annotation, an ``__all__`` entry).  Package ``__init__.py`` files
re-export by design and are skipped, as is any import line marked
``noqa`` (a re-import another module wraps by attribute).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(path: Path):
    """``(line, name)`` of each import in ``path`` that nothing uses."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name != "*" and "noqa" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_src_has_no_unused_imports():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import Dict, List, Optional\n"
        "import numpy as np  # noqa: F401\n"
        "import os.path\n"
        "x: 'Optional[int]' = None\n"
        "__all__ = ['List']\n"
    )
    assert unused_imports(module) == [(1, "Dict"), (3, "os")]
