"""Every module-level import of the package modules is used, every
module-level private function and class is used by the package itself,
every name the package exports resolves to the module it is imported from,
every public function and class, and every public field, method and
``__init__`` attribute of a class, is reached by the package, the acceptance
suite or the benchmark, and each defaulted parameter of a function or method
is passed by one of their calls (or is allowlisted with a reason), a call
of a class counting as a call of the ``__init__`` it inherits, every reason
code the package raises is named in the README, importing the package loads
no scipy module, and building the action table loads no quadrature.

``__init__.py`` is skipped by the first check: it imports names to
re-export them.
"""

import ast
import importlib
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pseudolattice

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudolattice"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# what reaches the surface of the package: the package itself, the
# acceptance suite and the benchmark
ROOT = PACKAGE.parents[1]
REACHING = [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]


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
PUBLIC_ALLOWLIST = {}


def test_public_surface_is_reached():
    # a public function or class that only the unit tests call is surface
    # to delete; references are names and attributes, not the imports and
    # __all__ strings that re-export them
    referenced = _referenced(REACHING)
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


def _members(path: Path) -> list:
    """``Class.name`` for the public annotated fields and methods of each
    module-level class of ``path``, and the ``self`` attributes its
    ``__init__`` sets."""
    members = []
    for cls in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            names = []
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
                if node.name == "__init__":
                    names += [
                        n.attr
                        for n in ast.walk(node)
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"
                    ]
            members += [f"{cls.name}.{name}" for name in names if not name.startswith("_")]
    return members


def _attributes_read(paths) -> set:
    """Every attribute the files ``paths`` read (not only set)."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


# public class members that no run, no acceptance criterion and no benchmark
# reads, kept for a stated reason
MEMBER_ALLOWLIST = {
    "PipelineError.index": "the failing center, rectangle or edge of a batch, for the planned run records (ROADMAP.md)",
    "TransitionMatrix.pre_round": "the transition's rounding error, for the planned run records (ROADMAP.md)",
}


def test_class_members_are_read():
    # a field, method or attribute that only the unit tests read is surface
    # to delete; setting an attribute is not reading it
    read = _attributes_read(REACHING)
    members = [member for path in MODULES for member in _members(path)]
    unread = [m for m in members if m.split(".")[1] not in read and m not in MEMBER_ALLOWLIST]
    assert unread == []
    stale = [m for m in MEMBER_ALLOWLIST if m not in members or m.split(".")[1] in read]
    assert stale == []


def _defaulted_parameters(path: Path) -> list:
    """``(call name, position, name, label)`` for each defaulted parameter of
    each function and method of ``path``; ``position`` counts from the
    first argument a call passes (after ``self``), and is None for a
    keyword-only parameter.  ``Cls(...)`` calls ``Cls.__init__``."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                skip = int(cls is not None)  # self
                name = cls if child.name == "__init__" else child.name
                label = f"{path.name}:{cls + '.' if cls else ''}{child.name}"
                first = len(positional) - len(a.defaults)
                found.extend((name, k - skip, arg.arg, f"{label}({arg.arg})") for k, arg in enumerate(positional) if k >= first)
                found.extend((name, None, arg.arg, f"{label}({arg.arg})") for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _classes(paths) -> dict:
    """For each module-level class of ``paths``, its base names and whether
    it defines ``__init__``."""
    classes = {}
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                own = any(isinstance(n, ast.FunctionDef) and n.name == "__init__" for n in node.body)
                classes[node.name] = ([b.id for b in node.bases if isinstance(b, ast.Name)], own)
    return classes


def _init_owner(classes: dict, name: str) -> str:
    """The name under which ``_defaulted_parameters`` lists the ``__init__``
    that a call ``name(...)`` runs: a class without its own inherits its
    first base's."""
    while name in classes and not classes[name][1] and classes[name][0]:
        name = classes[name][0][0]
    return name


def _calls(paths) -> dict:
    """For each called name (a function or an attribute), the positional
    argument count (unbounded with ``*args``) and keyword names of each of
    its calls in ``paths``; ``**kwargs`` passes every keyword."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                npos = math.inf if any(isinstance(x, ast.Starred) for x in node.args) else len(node.args)
                keys = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((npos, keys, None in keys))
    return calls


# defaulted parameters that no run, no acceptance criterion and no benchmark
# passes, kept for a stated reason
PARAMETER_ALLOWLIST = {}


def _passed(modules, reaching) -> dict:
    """For each defaulted parameter of ``modules``, whether a call in
    ``reaching`` passes it; calls match by name, as the member check does,
    and a call of a class runs the ``__init__`` it inherits."""
    classes = _classes(modules)
    calls = {}
    for name, found in _calls(reaching).items():
        calls.setdefault(_init_owner(classes, name), []).extend(found)
    return {
        label: any((pos is not None and npos > pos) or arg in keys or star for npos, keys, star in calls.get(name, []))
        for path in modules
        for name, pos, arg, label in _defaulted_parameters(path)
    }


def test_parameters_are_passed():
    # a default that every reaching call leaves in place is a second way to
    # run the code that only the unit tests take
    passed = _passed(MODULES, REACHING)
    assert [label for label, ok in passed.items() if not ok and label not in PARAMETER_ALLOWLIST] == []
    # an allowlist entry is stale once its parameter is gone or a run passes it
    assert [label for label in PARAMETER_ALLOWLIST if passed.get(label, True)] == []


def test_parameter_check_follows_inherited_init(tmp_path):
    # no call names PipelineError, yet its subclasses' calls pass its reason
    # and index; a default that none of them passes is still found
    planted = tmp_path / "models.py"
    source = (PACKAGE / "models.py").read_text()
    planted.write_text(source.replace("index: int | None = None)", "index: int | None = None, extra=None)"))
    modules = [planted if p.name == "models.py" else p for p in MODULES]
    reaching = [planted if p == PACKAGE / "models.py" else p for p in REACHING]
    passed = _passed(modules, reaching)
    assert passed["models.py:PipelineError.__init__(reason)"] and passed["models.py:PipelineError.__init__(index)"]
    assert [label for label, ok in passed.items() if not ok] == ["models.py:PipelineError.__init__(extra)"]


def _reason_codes(paths) -> set:
    """Every string literal that a call in ``paths`` passes as the defaulted
    ``reason`` parameter of a function or ``__init__`` of ``paths``, by
    position or by keyword."""
    classes = _classes(paths)
    position = {name: pos for path in paths for name, pos, arg, _ in _defaulted_parameters(path) if arg == "reason"}
    codes = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                pos = position.get(_init_owner(classes, getattr(node.func, "id", None) or node.func.attr))
                if pos is None:
                    continue
                args = [*node.args[pos : pos + 1], *(k.value for k in node.keywords if k.arg == "reason")]
                codes |= {a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)}
    return codes


def _undocumented(paths) -> list:
    """The reason codes of ``paths`` that the README names nowhere as
    `` `code` `` or ``[code]``."""
    readme = (ROOT / "README.md").read_text()
    return sorted(code for code in _reason_codes(paths) if not re.search(rf"[`\[]{code}[`\]]", readme))


def test_reason_codes_are_documented(tmp_path):
    # every reason code a failure of the package can carry is named in the
    # README, the codes of the CLI's loop-check FAIL lines among them;
    # planted codes, passed in each way, show the check sees them
    codes = _reason_codes(MODULES)
    assert {"out_of_table", "chart_inversion", "non_integral", "residual"} <= codes
    assert {"undecided", "not_conjugate", "cocycle", "band"} <= codes
    assert _undocumented(MODULES) == []
    planted = tmp_path / "planted.py"
    planted.write_text(
        'ModelError("a", "planted_positional")\n'
        'DetectionError("b", reason="planted_keyword")\n'
        '_check_centers(cs, bad, "c", "planted_center")\n'
        'failures.append(PipelineError("d", "planted_fail"))\n'
    )
    assert _undocumented([*MODULES, planted]) == ["planted_center", "planted_fail", "planted_keyword", "planted_positional"]


def test_package_import_loads_no_scipy():
    # numpy is the only dependency of the package; scipy's import alone took
    # longer than the rest of a run's set-up
    code = "import sys, pseudolattice; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_action_table_loads_no_quadrature():
    # the package reads the shipped action grid and never integrates it: in a
    # fresh process, importing it and building the table loads neither the
    # test helper that computes the grid nor numpy.polynomial; the helper's
    # import, which loads both, shows that the check can see them
    code = (
        "import sys\n"
        f"sys.path.append({str(ROOT / 'tests')!r})\n"
        "import pseudolattice.models as m\n"
        "m._action_table()\n"
        "loaded = lambda: [n in sys.modules for n in ('radial_action', 'numpy.polynomial')]\n"
        "before = loaded()\n"
        "import radial_action\n"
        "print(before, loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False] [True, True]"
