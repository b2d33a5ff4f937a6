"""Every name a bundleopt module imports is used in that module, every
module-level private name (`_x`) is referenced somewhere in the package,
and every name in a module's `__all__` exists and is a package export.
No module imports scipy.integrate. Importing the package, and planning
without inequalities, leave scipy and jsonschema unloaded.

`__init__.py` is exempt from the first check: its imports are the
package's exports.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bundleopt

SRC = Path(__file__).resolve().parents[1] / "src" / "bundleopt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def orphan_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for each module-level private function, class or constant
    that no module of `sources` (module name -> source) references."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [f"{module}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")
                        and name not in referenced]
    return orphans


def test_checker_flags_an_orphan_private_name():
    sources = {
        "a": "_USED = 1\n_ORPHAN = 2\n\n\ndef _f():\n    return _USED\n\n\n"
             "def _lonely():\n    pass\n\n\nclass _C:\n    pass\n\n\n"
             "class _Lonely:\n    pass\n",
        "b": "import a\nfrom a import _C\n\nprint(a._f(), _C)\n",
    }
    assert orphan_private_names(sources) == ["a._ORPHAN", "a._lonely", "a._Lonely"]


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphan_private_names(sources) == []


def imported_modules(source: str) -> set[str]:
    """Every module an import statement of `source` names, `from a import b` as a.b too."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def imports_scipy_integrate(source: str) -> bool:
    return any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
               for name in imported_modules(source))


@pytest.mark.parametrize("source", [
    "import scipy.integrate", "import scipy.integrate as si",
    "from scipy import integrate", "from scipy.integrate import quad",
    "def f():\n    from scipy import integrate\n"],
    ids=["import", "import_as", "from_scipy", "from_integrate", "inside_function"])
def test_checker_flags_a_scipy_integrate_import(source):
    assert imports_scipy_integrate(source)
    assert not imports_scipy_integrate("import scipy.linalg\nfrom scipy import linalg\n")


def test_no_module_imports_scipy_integrate():
    # the quadrature that needed it is a test reference (tests/oracles.py)
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if imports_scipy_integrate(p.read_text(encoding="utf-8"))] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_all_names_exist_and_are_exported(path):
    module = importlib.import_module(f"bundleopt.{path.stem}")
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []
    assert [name for name in names
            if getattr(bundleopt, name, None) is not getattr(module, name)] == []


# Prints, after each step, which of the heavy optional imports are loaded.
_IMPORT_PATH_SCRIPT = """
import json, sys
import numpy as np

def loaded():
    return sorted(m for m in ("scipy", "scipy.linalg", "jsonschema") if m in sys.modules)

report = {}
import bundleopt, bundleopt.cli
report["import"] = loaded()
setup = bundleopt.build_task("lti")
bundleopt.irs_lqr_run(setup.system, setup.mpc, bundleopt.GradientMode(), 0.0,
                      max_iters=2, u_init=setup.u_init)
dist = bundleopt.SmoothingDistribution.isotropic(1, 0.3)
for fid in bundleopt.TEST_FUNCTION_IDS:
    bundleopt.convolution_oracle(bundleopt.get_test_function(fid), [0.1], dist)
report["plan_and_oracle"] = loaded()
problem = bundleopt.QpProblem(np.eye(2), np.ones(2), np.ones((1, 2)), [0.0])
report["qp_problem"] = loaded()
bundleopt.solve_qp(problem)
report["solve_qp"] = loaded()
print(json.dumps(report))
"""


def test_scipy_and_jsonschema_load_only_where_they_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PATH_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["import"] == []
    assert report["plan_and_oracle"] == []
    # the negative case: a QP's validation is its first factorization, so
    # building the problem loads LAPACK, and solving it loads nothing more
    assert {"scipy", "scipy.linalg"} <= set(report["qp_problem"])
    assert report["solve_qp"] == report["qp_problem"]
