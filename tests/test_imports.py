"""No module of the package imports a name it never uses, and the exact
core stays apart from the combinatorial layer.

No linter runs offline, so this reads each module's syntax tree: a name
bound by an import must be read somewhere in the module, in code or in a
string annotation.  ``__init__.py`` is left out, because its imports are the
package's public names.  The same trees show what each module takes from
the others: ``poly``, ``ratfunc`` and ``charts`` take nothing from
``solver`` and only the center structure ``check_tower`` compares from
``descriptor``; ``descriptor`` and ``solver`` take nothing from the
polynomial and chart modules; and ``candidates`` takes only the certificate
classes from ``solver``.  And every private function or method (one
leading underscore) is referenced by name somewhere in the package outside
its own body, so a helper whose last caller goes is caught.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dicriticals"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, with those inside string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def unused_imports(source: str, filename: str = "<module>") -> list[str]:
    tree = ast.parse(source, filename)
    used = read_names(tree)
    return [f"{filename}:{line}: {name}" for name, line in imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(), path.name) == []


def test_an_unused_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from itertools import islice as take\n"
        "from operator import mul\n"
        "def f(x: 'Fraction') -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["<module>:4: take", "<module>:5: mul"]


def package_imports(tree: ast.Module) -> dict[str, set[str]]:
    """The names the module takes from each module of the package; a module
    imported whole takes ``*``."""
    taken: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dicriticals."):
                    taken.setdefault(alias.name.removeprefix("dicriticals."), set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("dicriticals"):
                module = module.removeprefix("dicriticals").removeprefix(".")
            elif node.level != 1:
                continue
            for alias in node.names:
                if module:
                    taken.setdefault(module, set()).add(alias.name)
                else:  # from . import solver
                    taken.setdefault(alias.name, set()).add("*")
    return taken


CORE = ("poly", "ratfunc", "charts")
COMBINATORIAL = ("descriptor", "solver")
CERTIFICATES = {"LastDicriticalCertificate", "ProfileCertificate", "SingleDicriticalCertificate", "SupportCertificate"}
# (module, module it imports from, the names it may take from it)
SEPARATION = [
    *((core, "solver", set()) for core in CORE),
    *((core, "descriptor", {"ModificationDescriptor"}) for core in CORE),
    *(
        (module, source, set())
        for module in COMBINATORIAL
        for source in ("poly", "ratfunc", "charts", "candidates", "verify")
    ),
    ("candidates", "solver", CERTIFICATES),
]


def separation_breaches(sources: dict[str, str]) -> list[str]:
    """The names a module of ``sources`` (module name -> source text) takes
    from another beyond what ``SEPARATION`` allows."""
    taken = {module: package_imports(ast.parse(text, module)) for module, text in sources.items()}
    breaches = []
    for module, source, allowed in SEPARATION:
        extra = taken.get(module, {}).get(source, set()) - allowed
        if extra:
            breaches.append(f"{module} takes {sorted(extra)} from {source}")
    return breaches


def test_the_exact_core_stays_apart_from_the_combinatorial_layer():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert set(sources) >= {module for module, _, _ in SEPARATION}
    assert separation_breaches(sources) == []


def test_a_breach_of_the_separation_is_reported():
    sources = {
        "poly": "from .descriptor import ModificationDescriptor, valuation_matrix\n",
        "solver": "from . import charts\nfrom .errors import SolverError\n",
        "candidates": "from dicriticals.solver import SupportCertificate, solve_support\n",
    }
    assert separation_breaches(sources) == [
        "poly takes ['valuation_matrix'] from descriptor",
        "solver takes ['*'] from charts",
        "candidates takes ['solve_support'] from solver",
    ]


def referenced_names(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """The private functions and methods of ``sources`` (module name ->
    source text) whose name is read nowhere but in their own bodies."""
    trees = {module: ast.parse(text, module) for module, text in sources.items()}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{node.lineno}: {node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] == referenced_names(node)[node.name]
    ]


def test_every_private_function_is_referenced():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_private_functions(sources) == []


def test_an_unreferenced_private_function_is_reported():
    sources = {
        "poly": (
            "def _helper(x):\n"
            "    return _helper(x - 1) if x else 0\n"
            "def _used(x):\n"
            "    return x\n"
            "class P:\n"
            "    def _method(self):\n"
            "        return self._other()\n"
            "    def _other(self):\n"
            "        return 1\n"
            "    def __repr__(self):\n"
            "        return ''\n"
        ),
        "charts": "from .poly import _used\nVALUE = _used(1)\n",
    }
    assert unreferenced_private_functions(sources) == ["poly:1: _helper", "poly:6: _method"]
