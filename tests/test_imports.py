"""Every module-level import of the package modules is used, every
module-level private function and class is used by the package itself,
every name the package exports resolves to the module it is imported from,
every public function and class is reached by the package, the acceptance
suite or the benchmark (or is allowlisted with a reason), and importing the
package loads no scipy module.

``__init__.py`` is skipped by the first check: it imports names to
re-export them.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import pseudolattice

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudolattice"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path) == []


def _reexports() -> list:
    """``(module, name)`` for every ``from .module import name`` in ``__init__.py``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        (node.module, a.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    ]


def test_package_exports_resolve_once():
    names = pseudolattice.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(pseudolattice, n)] == []
    assert sorted(names) == sorted(name for _, name in _reexports())
    # each export is defined in the module it is imported from, not passed on
    # by a module that imports it in turn
    stale = [
        f"{mod}.{name}"
        for mod, name in _reexports()
        if getattr(importlib.import_module(f"pseudolattice.{mod}"), name).__module__ != f"pseudolattice.{mod}"
    ]
    assert stale == []


def _definitions(path: Path) -> list:
    """Names of the module-level functions and classes of ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds)]


def _referenced(paths) -> set:
    """Every name and attribute the files ``paths`` refer to."""
    referenced = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def test_private_helpers_are_used_by_the_package():
    # a helper that only the tests still reach is left over from folded code
    referenced = _referenced(PACKAGE.glob("*.py"))
    unused = [
        f"{path.name}:{name}"
        for path in MODULES
        for name in _definitions(path)
        if name.startswith("_") and name not in referenced
    ]
    assert unused == []


# public names that no run, no acceptance criterion and no benchmark reaches,
# kept for a stated reason
PUBLIC_ALLOWLIST = {
    "action_grid": "regenerates the shipped action grid",
}


def test_public_surface_is_reached():
    # a public function or class that only the unit tests call is surface
    # to delete; references are names and attributes, not the imports and
    # __all__ strings that re-export them
    root = PACKAGE.parents[1]
    referenced = _referenced([*PACKAGE.glob("*.py"), root / "tests" / "test_acceptance.py", *(root / "perfbench").glob("*.py")])
    defined = {name for path in MODULES for name in _definitions(path)}
    unreached = [
        f"{path.name}:{name}"
        for path in MODULES
        for name in _definitions(path)
        if not name.startswith("_") and name not in referenced and name not in PUBLIC_ALLOWLIST
    ]
    assert unreached == []
    # an allowlist entry is stale once its name is gone or a run reaches it
    stale = [name for name in PUBLIC_ALLOWLIST if name not in defined or name in referenced]
    assert stale == []


def test_package_import_loads_no_scipy():
    # numpy is the only dependency of the package; scipy's import alone took
    # longer than the rest of a run's set-up
    code = "import sys, pseudolattice; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
