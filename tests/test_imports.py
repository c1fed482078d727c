"""Static checks on the package source (stdlib ``ast``, no linter needed)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "crisscross"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
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
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math\nfrom json import dumps, loads as ld\n"
              "def f() -> math.inf:\n    return ld('1')\n")
    assert unused_imports(source) == ["line 2: os", "line 4: dumps"]


def test_no_unused_module_imports():
    """``__init__.py`` only re-exports, so it is exempt."""
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
