"""Every name a bundleopt module imports is used in that module, every
module-level private name (`_x`) is referenced somewhere in the package,
and every name in a module's `__all__` exists and is a package export.
No module imports scipy.integrate or names SeedSequence. The runtime
dependencies in pyproject.toml are exactly the third-party modules the
package imports. Importing the package leaves scipy and jsonschema
unloaded, and no package path loads scipy.

`__init__.py` is exempt from the first check: its imports are the
package's exports.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bundleopt

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bundleopt"
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


def names_seed_sequence(source: str) -> bool:
    """True if `source` names SeedSequence: as a name, an attribute or an imported name."""
    return any("SeedSequence" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  getattr(node, "name", None))
               for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("source", [
    "np.random.SeedSequence(1)", "from numpy.random import SeedSequence as S",
    "SeedSequence([0, 1]).generate_state(1)",
    "def f(seed):\n    return np.random.SeedSequence(seed)\n"],
    ids=["attribute", "import_as", "bare_name", "inside_function"])
def test_checker_flags_a_seed_sequence(source):
    assert names_seed_sequence(source)
    assert not names_seed_sequence("rng = np.random.default_rng((1, 2))\n")


def test_no_module_names_seed_sequence():
    # a seed is whatever np.random.default_rng takes, a Generator included:
    # no module hashes one seed into another
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if names_seed_sequence(p.read_text(encoding="utf-8"))] == []


def third_party_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports of `source` outside the standard library."""
    tops = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return tops - sys.stdlib_module_names - {"__future__"}


def test_checker_finds_third_party_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from . import qp\nfrom .errors import E\n"
              "def f():\n    from scipy.linalg import lapack\n    import jsonschema\n")
    assert third_party_modules(source) == {"numpy", "scipy", "jsonschema"}


def test_runtime_dependencies_are_the_imported_modules():
    tomllib = pytest.importorskip("tomllib")         # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
                for req in requirements}
    imported = set().union(*(third_party_modules(p.read_text(encoding="utf-8"))
                             for p in sorted(SRC.glob("*.py"))))
    assert declared == imported == {"numpy", "jsonschema"}


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
for task in ("push_1d", "dubins_parking"):
    setup = bundleopt.build_task(task)
    for kind in ("exact", "first_order_bundle", "zero_order_bundle"):
        history = bundleopt.irs_lqr_run(setup.system, setup.mpc, bundleopt.GradientMode(kind),
                                        0.25, max_iters=2, u_init=setup.u_init)
window = setup.mpc.window(1, history[-1].xs[1])
bundleopt.mpc_solve(window, history[-1].linearizations)
report["constrained_plan"] = loaded()
problem = bundleopt.QpProblem(np.eye(2), np.ones(2), np.ones((1, 2)), [0.0])
report["qp_problem"] = loaded()
bundleopt.solve_qp(problem)
report["solve_qp"] = loaded()
bundleopt.ContactPush2D(model="anitescu").step_batch(np.array([[0.0, 0.0, 0.7]]),
                                                     np.array([[0.05, 0.55]]))
report["anitescu_step"] = loaded()
print(json.dumps(report))
"""


def test_scipy_and_jsonschema_load_only_where_they_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PATH_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    # jsonschema loads only with a CLI config
    assert report == dict.fromkeys(["import", "plan_and_oracle", "constrained_plan",
                                    "qp_problem", "solve_qp", "anitescu_step"], [])
