"""Every file parses at the oldest Python that ``pyproject.toml`` supports,
every name a module imports is used by that module, every private
helper of the package is used by the package, every public name is
reached from outside the tests, the package never calls a checked
operator constructor, neither the rest of the package nor the scripts
calls the closed-form hydrogen oracle, numpy's eigen-solvers are reached
only through ``operators._eigh``, and loading the package or its CLI
loads no module that computes.

A stand-in for a linter's unused-import check, built on ``ast`` alone, over
the package, the scripts and the tests.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import weakprobe

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weakprobe"
SOURCES = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
]
MODULES = [
    pytest.param(p, marks=pytest.mark.skip(reason="pinned unedited; its json import is FOUND (i)"))
    if p.name == "test_acceptance.py"
    else p
    for p in SOURCES
]
# The oldest Python the package declares, as (major, minor).
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    ).groups()
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    # The floor's grammar rejects newer syntax (``except*``, ``type``
    # statements) on whichever newer interpreter runs the suite.
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code and in annotations, quoted or not."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= used_names(ast.parse(part.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    bound = imported_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


def private_definitions(tree: ast.Module) -> list[str]:
    """The private names a module defines at its top level (functions,
    classes and assignments), dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def test_every_private_helper_is_read():
    # A private name no module of the package reads is dead code; tests may
    # reach private names, but they do not keep one alive.
    defined, read = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [f"{path.name}:{name}" for name in private_definitions(tree)]
        read |= {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    assert defined, "no private names found: the walk is broken"
    assert [d for d in defined if d.partition(":")[2] not in read] == []


# Where a public name must be reached from: the package, the scripts, the
# benchmark and the acceptance criteria.  The other tests do not count.
ROUTES = [
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

# Public names that only the tests reach, each kept for a reason.
TEST_ONLY = {
    # the per-trial oracle that the Monte Carlo kernel is checked against
    "weakvalues.objective_weak_value_at",
    # the pointer's Im(O_w) readout, the momentum side of the position mean
    "pointer.postselected_pointer_momentum_mean",
}


def reached(tree: ast.Module, strings: bool) -> tuple[set[str], set[str]]:
    """The names a module reads as bare names and as attributes.  With
    ``strings``, each part of a dotted-name string counts as both: the
    benchmark looks functions up by strings such as
    ``"Projector.from_matrix"``.  The package's own strings are its
    ``__all__`` and ``_DEFERRED`` rows, which reach nothing."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                parts = node.value.split(".")
                names.update(parts)
                attrs.update(parts)
    return names, attrs


def public_names():
    """``module.name`` for each name in a module's ``__all__``, and
    ``module.Class.member`` for each public method, property, classmethod
    or staticmethod of a class the module defines and exports."""
    for module_name in sorted(weakprobe._DEFERRED):
        module = importlib.import_module(f"weakprobe.{module_name}")
        for name in getattr(module, "__all__", ()):
            yield f"{module_name}.{name}", name, False
            obj = getattr(module, name)
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    kinds = (property, classmethod, staticmethod)
                    if not attr.startswith("_") and (
                        isinstance(member, kinds) or inspect.isfunction(member)
                    ):
                        yield f"{module_name}.{name}.{attr}", attr, True


def test_every_public_name_is_reached_outside_the_tests():
    # A public name that only the tests call is a test-only path: delete it,
    # or move it into the tests.  A class member counts only as an attribute.
    names, attrs = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        n, a = reached(ast.parse(path.read_text(), filename=str(path)), strings=False)
        names |= n
        attrs |= a
    for path in ROUTES:
        n, a = reached(ast.parse(path.read_text(), filename=str(path)), strings=True)
        names |= n
        attrs |= a
    census = {
        qualname: name in attrs if member else name in names | attrs
        for qualname, name, member in public_names()
    }
    assert "operators.Projector.from_matrix" in census, "no members found: the walk is broken"
    unreached = {qualname for qualname, ok in census.items() if not ok}
    assert unreached - TEST_ONLY == set()
    # a listed name that is gone, or that a route now reaches, comes off the list
    assert TEST_ONLY - unreached == set()


# The operator types whose public constructors run their checks.
CHECKED_TYPES = {"DensityOperator", "Projector", "ObservableSpectral"}


def callee(func: ast.expr) -> str | None:
    """The name a call reaches, ``f`` in ``f(...)`` and ``m.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_package_never_calls_a_checked_constructor():
    # Outside input goes through validate_density, Projector.from_matrix and
    # spectral_decompose, and what the library builds through
    # operators._trusted; a direct call would check it again, unseen, on
    # whatever path it sits.
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [
            f"{path.name}:{node.lineno} {callee(node.func)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and callee(node.func) in CHECKED_TYPES
        ]
    assert calls == []


def test_no_route_calls_hydrogen_predictions():
    # The CLI and the scripts print averaged_weak_value_* of a ProtocolConfig;
    # the closed form is the oracle they are checked against, not a route.
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "hydrogen.py"]
    calls = []
    for path in paths + sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and callee(node.func) == "hydrogen_predictions"
        ]
    assert calls == []


# The names by which a module could reach numpy's eigh: the wrapper, its
# two gufuncs and the extension module that holds them; and numpy's other
# eigen-solvers, which would decompose a matrix by a second route.
EIGH_NAMES = {"eigh", "eigh_lo", "eigh_up", "_umath_linalg", "eigvalsh", "eigvals", "eig"}


def reference_name(node: ast.AST) -> str | None:
    """The last part of the name that ``node`` reads or imports."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def test_every_eigh_goes_through_the_kernel_helper():
    # operators._eigh calls numpy's eigh gufunc under the errstate that
    # np.linalg.eigh sets, without the wrapper's per-call cost; another
    # route would pay that cost again, or miss the errstate
    outside, inside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        helper = set()
        if path.name == "operators.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_eigh":
                    helper |= set(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            name = reference_name(node)
            if name in EIGH_NAMES:
                found = inside if id(node) in helper else outside
                found.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []
    assert sorted(entry.rpartition(" ")[2] for entry in inside) == ["_umath_linalg", "eigh_lo"]


def module_level_imports(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """What a module imports when it loads, as ``pkg`` or ``.module``, with
    the line and whether ``if TYPE_CHECKING:`` guards it.  Imports inside
    functions are left out."""
    out = []
    stack = [(node, False) for node in tree.body]
    while stack:
        node, typing_only = stack.pop()
        if isinstance(node, ast.Import):
            out += [(a.name.partition(".")[0], node.lineno, typing_only) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if not node.level:
                source = source.partition(".")[0]
            out.append((source, node.lineno, typing_only))
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack += [(child, True) for child in node.body]
            stack += [(child, typing_only) for child in node.orelse]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += [(child, typing_only) for child in ast.iter_child_nodes(node)]
    return out


def test_package_loads_no_module_of_its_own():
    # Every module loads on first use, when the package's __getattr__ reads it.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    own = [
        f"__init__.py:{line} {source}"
        for source, line, _ in module_level_imports(tree)
        if source.startswith(".") or source == "weakprobe"
    ]
    assert own == []


def test_cli_loads_only_the_standard_library_and_errors():
    # numpy and the modules a command computes with load inside the command,
    # so --help, usage errors and an unreadable --config answer without them.
    imports = module_level_imports(ast.parse((PACKAGE / "cli.py").read_text()))
    assert imports, "no imports found: the walk is broken"
    other = [
        f"cli.py:{line} {source}"
        for source, line, typing_only in imports
        if not typing_only and source not in sys.stdlib_module_names and source != ".errors"
    ]
    assert other == []
