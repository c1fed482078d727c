"""Static checks on the package source (stdlib ``ast``, no linter needed),
checks of what the CLI loads, and the package's public names."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crisscross as cc

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
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def module_definitions(source: str) -> dict:
    """Module-level functions, classes and assigned names -> line."""
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
    return found


def private_definitions(source: str) -> dict:
    """Module-level ``_name`` functions, classes and assignments -> line."""
    return {name: line for name, line in module_definitions(source).items()
            if name.startswith("_") and not name.startswith("__")}


def constant_definitions(source: str) -> dict:
    """Module-level public UPPER_CASE names -> line."""
    return {name: line for name, line in module_definitions(source).items()
            if name.isupper() and not name.startswith("_")}


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


def names_read_from(source: str, module: str) -> set:
    """Names ``source`` may read from the package module ``module``: every
    attribute, and the names it imports from that module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names.update(alias.name for alias in node.names)
    return names


def test_private_checker_flags_only_unread_definitions():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\nPUBLIC = 3\n"
              "def _f():\n    return _A\nclass _C:\n    pass\n_D = _C\n")
    defined = private_definitions(source)
    assert defined == {"_A": 1, "_B": 2, "_f": 5, "_C": 7, "_D": 9}
    assert sorted(set(defined) - read_names(source)) == ["_B", "_D", "_f"]
    assert constant_definitions(source + "A, _E = 1, 2\n") == {"PUBLIC": 4, "A": 10}
    other = "from .mod import A\nfrom crisscross.other import B\nx = m.C + D\n"
    assert names_read_from(other, "mod") == {"A", "C"}


def test_every_private_definition_is_read():
    """Every private name a module defines is read somewhere in the package,
    and every UPPER_CASE constant in its own module, as an attribute, or
    through an import from its module (another module's constant of the same
    name does not count)."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    read = set().union(*(read_names(source) for source in sources.values()))
    unread = {}
    for name, source in sources.items():
        module = name.removesuffix(".py")
        read_here = read_names(source).union(
            *(names_read_from(other, module) for other in sources.values()))
        names = [f"line {line}: {n}" for n, line in private_definitions(source).items()
                 if n not in read]
        names += [f"line {line}: {n}" for n, line in constant_definitions(source).items()
                  if n not in read_here]
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


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))


def test_cli_commands_do_not_load_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _CLI_RUNS, str(tmp_path / "data.csv")],
                          capture_output=True, text=True, env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "[]"


_LOADED = """
import json
import sys
if sys.argv[1:]:
    from crisscross.cli import main
    assert main(sys.argv[1:]) == 0, sys.argv
else:
    import crisscross
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "crisscross")),
      file=sys.stderr)
"""

_CLI = {"crisscross", "crisscross.cli", "crisscross.errors"}
_DATA = _CLI | {"crisscross.dataio", "crisscross.model", "crisscross.families"}


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("loads") / "data.csv"
    sim = cc.simulate_dataset(cc.ScenarioConfig(cc.SECTION61_TARGET,
                                                cc.SECTION61_MECHANISM, 120, 7))
    cc.save_dataset(sim.observed, path)
    return path


@pytest.mark.parametrize("argv, modules", [
    ([], {"crisscross"}),
    (["estimate", "DATA", "--method", "pseudolik"], _DATA | {"crisscross.pseudolik"}),
    (["estimate", "DATA", "--method", "pseudolik", "--group-size", "3"],
     _DATA | {"crisscross.pseudolik"}),
    (["bootstrap", "DATA", "--method", "pseudolik", "--resamples", "3"],
     _DATA | {"crisscross.pseudolik", "crisscross.experiments"}),
    (["estimate", "DATA", "--method", "gee"], _DATA | {"crisscross.gee", "crisscross.glm"}),
    (["estimate", "DATA", "--method", "gee", "--f", "optimal", "--sigma2", "8.19"],
     _DATA | {"crisscross.gee", "crisscross.glm"}),
    (["bootstrap", "DATA", "--method", "gee", "--resamples", "3"],
     _DATA | {"crisscross.gee", "crisscross.glm", "crisscross.experiments"}),
    (["identify", "--case", "bivariate_normal"],
     _CLI | {"crisscross.identify", "crisscross.model", "crisscross.families"}),
    (["verify-counterexample"], _CLI | {"crisscross.counterexample"}),
], ids=["import", "estimate-pseudolik", "estimate-g3", "bootstrap-pseudolik",
        "estimate-gee", "estimate-gee-optimal", "bootstrap-gee", "identify",
        "verify-counterexample"])
def test_each_command_loads_only_its_layers(argv, modules, data_csv):
    argv = [str(data_csv) if a == "DATA" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                          text=True, env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stderr.strip().splitlines()[-1])) == modules


# every name the package exported when ``__init__`` imported its layers
PUBLIC = {
    "errors": "ConfigError CrissCrossError DataError DomainError NumericalError "
              "SeparationError",
    "families": "Family Link expit logit",
    "model": "ExpFamilySpec MissingnessMechanism ObservedDataset PairKernel "
             "TargetLawParams derive_conditional eval_q or_from_theta",
    "simulate": "Binary2x2Model BivariateNormalTarget ExpFamilyTarget "
                "MISSPECIFIED_MECHANISM SECTION61_MECHANISM SECTION61_TARGET "
                "ScenarioConfig SimulationResult missingness_summary "
                "simulate_binary simulate_dataset",
    "dataio": "load_dataset save_dataset save_report",
    "identify": "CASE_STUDIES FullLawVerdict JacobianReport build_jacobian "
                "case_study equation_stack full_law_verdict numerical_rank "
                "sufficient_knowledge_search",
    "counterexample": "CounterexampleReport verify_counterexample",
    "pseudolik": "PairDesign PseudoLikResult build_pairs fit_groupwise fit_pairwise "
                 "fit_pairwise_with_variance groupwise_loglik variance_ustat",
    "gee": "Binary2x2 Binary2x2Result GeeResult NonOptimalF NormalLinear OptimalF "
           "PropensityModel estimate_binary_2x2 fit_propensity gee_residual "
           "optimal_f sandwich_gee solve_gee",
    "aipw": "AipwResult PermutationNuisance aipw_permutation fit_permutation_nuisances",
    "experiments": "BootstrapResult ExperimentConfig ReplicationSummary bootstrap "
                   "run_experiment sweep_points write_summary",
}


def test_public_names_resolve_to_their_submodule():
    listed = dir(cc)
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"crisscross.{module}")
        for name in names.split():
            scope = {}
            exec(f"from crisscross import {name}", scope)
            assert getattr(cc, name) is scope[name] is getattr(sub, name), name
            assert name in listed, name
            # read through, never stored: a name patched on the submodule
            # and restored there is the same object here
            assert name not in vars(cc), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cc, "no_such_name")
    with pytest.raises(ImportError):
        exec("from crisscross import no_such_name", {})
