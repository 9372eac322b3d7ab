"""Lint: every top-level import in the package is used in its module."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qedc"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_lint_sees_an_unused_import():
    source = "from a import b, c\nimport d.e\nimport f as g\nprint(c, d)\n"
    assert _unused_imports(source) == ["b (line 1)", "g (line 3)"]
