"""Static checks on the package source (stdlib ``ast``, no linter needed),
and a check of what the CLI loads."""

import ast
import os
import subprocess
import sys
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


def private_definitions(source: str) -> dict:
    """Module-level ``_name`` functions, classes and assignments -> line."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found[name.id] = node.lineno
    return {name: line for name, line in found.items()
            if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set:
    """Names a module loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_private_checker_flags_only_unread_definitions():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\nPUBLIC = 3\n"
              "def _f():\n    return _A\nclass _C:\n    pass\n_D = _C\n")
    defined = private_definitions(source)
    assert defined == {"_A": 1, "_B": 2, "_f": 5, "_C": 7, "_D": 9}
    assert sorted(set(defined) - read_names(source)) == ["_B", "_D", "_f"]


def test_every_private_definition_is_read():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    read = set().union(*(read_names(source) for source in sources.values()))
    unread = {}
    for name, source in sources.items():
        names = [f"line {line}: {n}" for n, line in private_definitions(source).items()
                 if n not in read]
        if names:
            unread[name] = names
    assert unread == {}


def import_time_modules(source: str) -> list[str]:
    """Modules imported when the module runs: its top level and class
    bodies, not function bodies."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_import_time_checker_skips_function_bodies():
    source = ("import numpy as np\nfrom . import model\n"
              "if True:\n    import scipy.special\n"
              "class C:\n    from scipy import integrate\n"
              "def f():\n    from scipy.integrate import quad\n")
    assert import_time_modules(source) == ["numpy", "scipy", "scipy.special"]


def test_no_module_level_scipy_import():
    """scipy would cost most of a CLI process's start-up; no module imports
    it when loaded (``test_no_scipy_import_in_package`` checks function
    bodies too)."""
    found = {path.name: [m for m in import_time_modules(path.read_text(encoding="utf-8"))
                         if m.split(".")[0] == "scipy"]
             for path in sorted(SRC.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {}


def test_no_scipy_import_in_package():
    """numpy is the only runtime dependency: no module imports scipy, not
    even inside a function."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found.setdefault(path.name, []).extend(
                f"line {node.lineno}: {m}" for m in mods if m.split(".")[0] == "scipy")
    assert {name: mods for name, mods in found.items() if mods} == {}


_CLI_RUNS = """
import json
import sys
import crisscross as cc
import crisscross.cli as cli
from crisscross.identify import multinomial_support
path = sys.argv[1]
sim = cc.simulate_dataset(cc.ScenarioConfig(cc.SECTION61_TARGET,
                                            cc.SECTION61_MECHANISM, 120, 7))
cc.save_dataset(sim.observed, path)
with open(path + ".json", "w") as fh:
    json.dump({"support_points": [p.tolist() for p in multinomial_support()]}, fh)
for argv in (["estimate", path, "--method", "pseudolik"],
             ["estimate", path, "--method", "pseudolik", "--group-size", "3"],
             ["estimate", path, "--method", "gee"],
             ["bootstrap", path, "--method", "pseudolik", "--resamples", "5"],
             ["identify", "--case", "bivariate_normal"],
             ["identify", "--case", "poisson_normal"],
             ["identify", "--case", "multinomial", "--config", path + ".json"],
             ["verify-counterexample"]):
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""


def test_cli_commands_do_not_load_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CLI_RUNS, str(tmp_path / "data.csv")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "[]"
