"""The package's modules use one another only through public names, no
tree walk in it recurses, jets and formulas have no scalar mode, no module
uses numpy.random, the seeded stream is random.Random with only
generators.Draws' integers added, zeros evaluates values only, and the
jet oracle shares no function with the code it checks."""

from __future__ import annotations

import ast
import importlib
import inspect
import random
from pathlib import Path
from typing import Callable

import qfc
from qfc.generators import Draws, SeededStream

SRC = Path(qfc.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    """The _-prefixed names the module imports from another qfc module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "qfc"):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another() -> None:
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert {p.name: _private_imports(p) for p in modules} == {p.name: [] for p in modules}


def _call_graph(path: Path) -> dict[str, set[str]]:
    """The module's functions and methods (a method as Class.name) and,
    for each, those of them it calls: a function by its name, a method of
    its own class as self.name or cls.name.  A nested function's calls
    count as its enclosing function's."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners: dict[str, tuple[str, ast.AST]] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            owners[node.name] = ("", node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    owners[f"{node.name}.{item.name}"] = (node.name, item)
    graph: dict[str, set[str]] = {}
    for key, (cls, fn) in owners.items():
        callees = set()
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name):
                callees.add(f.id)
            elif cls and isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
                callees.add(f"{cls}.{f.attr}")
        graph[key] = callees & owners.keys()
    return graph


def _on_call_cycles(path: Path) -> list[str]:
    """The functions of the module that can reach themselves through its
    call graph: direct recursion and mutual recursion alike."""
    graph = _call_graph(path)
    cyclic = []
    for start in graph:
        seen: set[str] = set()
        todo = list(graph[start])
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        if start in seen:
            cyclic.append(start)
    return sorted(cyclic)


def test_no_function_in_the_package_recurses() -> None:
    """A recursive walk stops at Python's recursion limit on a deep tree:
    the parser, lowering, printer, evaluator, formulas and JSON writer in
    src walk iteratively, and the recursive oracles live in
    tests/expr_oracle.py and tests/jet_oracle.py."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert {p.name: _on_call_cycles(p) for p in modules} == {p.name: [] for p in modules}


def test_the_cycle_finder_sees_direct_and_mutual_recursion(tmp_path: Path) -> None:
    path = tmp_path / "module.py"
    path.write_text(
        "def walk(e):\n    return [walk(k) for k in e]\n\n"
        "def leaf():\n    return walk(())\n\n"
        "class P:\n"
        "    def expr(self):\n        return self.atom()\n"
        "    def atom(self):\n        return self.expr() if self else leaf()\n"
        "    def alone(self):\n        return leaf()\n",
        encoding="utf-8",
    )
    assert _on_call_cycles(path) == ["P.atom", "P.expr", "walk"]


ORACLE = Path(__file__).resolve().parent / "jet_oracle.py"
_CHECKED = ("qfc.jets", "qfc.analysis")


def _names_used_from(path: Path, modules: tuple[str, ...]) -> list[str]:
    """The names the file takes from the modules: those it imports from
    one, and the attributes it reads of one imported as a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases: dict[str, str] = {}  # a local name bound to a module, and its module
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in modules:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if f"{node.module}.{a.name}" in modules:
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
                elif node.module in modules:
                    used.append(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if owner in aliases:
                used.append(f"{aliases[owner]}.{node.attr}")
    return sorted(set(used))


def _functions(names: list[str]) -> list[str]:
    found = []
    for name in names:
        module, attr = name.rsplit(".", 1)
        if inspect.isroutine(getattr(importlib.import_module(module), attr)):
            found.append(name)
    return found


def test_the_jet_oracle_uses_no_function_of_jets_or_analysis() -> None:
    """The oracle's own slotwise rules stand against the jet_* rules of
    src, so it may take only types, constants and node classes from the
    modules it checks."""
    used = _names_used_from(ORACLE, _CHECKED)
    assert "qfc.jets.WirtingerJet" in used
    assert _functions(used) == []


def test_the_name_finder_sees_imports_and_module_attributes(tmp_path: Path) -> None:
    path = tmp_path / "module.py"
    path.write_text(
        "import qfc.jets\nimport qfc.analysis as an\nfrom qfc import jets as J\n"
        "from qfc.jets import jet_add, CArray\n"
        "x = qfc.jets.SINGULAR_SQ_TOL + an.REAL_TOL\ny = J.jet_mul\n",
        encoding="utf-8",
    )
    used = _names_used_from(path, _CHECKED)
    assert used == [
        "qfc.analysis.REAL_TOL",
        "qfc.jets.CArray",
        "qfc.jets.SINGULAR_SQ_TOL",
        "qfc.jets.jet_add",
        "qfc.jets.jet_mul",
    ]
    assert _functions(used) == ["qfc.jets.jet_add", "qfc.jets.jet_mul"]


def _ndarray_branches(path: Path) -> list[str]:
    """The functions and methods of the module that call isinstance with
    np.ndarray among the types."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for owner in ast.walk(tree):
        if not isinstance(owner, ast.FunctionDef):
            continue
        for call in ast.walk(owner):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "isinstance"
                and len(call.args) == 2
                and "np.ndarray" in ast.unparse(call.args[1])
            ):
                found.append(owner.name)
    return sorted(set(found))


def test_jets_and_analysis_have_no_scalar_mode() -> None:
    """Every jet and formula value is an array, a point's of shape (1,):
    no function in jets or analysis branches on whether it holds one."""
    assert {m: _ndarray_branches(SRC / f"{m}.py") for m in ("jets", "analysis")} == {"jets": [], "analysis": []}
    assert _ndarray_branches(SRC / "quaternion.py") != []  # the finder sees quaternion's scalar arms


def _dotted(node: ast.expr, bound: dict[str, str]) -> str | None:
    """The numpy name an attribute chain reads, such as numpy.linalg.norm,
    when it starts at a name bound to numpy or to one of its objects."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(attrs)])
    return None


def _numpy_uses(path: Path, wanted: Callable[[str], bool]) -> list[str]:
    """Where the module imports a numpy name that wanted accepts, or reads
    one as an attribute chain, under any name it binds numpy or a numpy
    object to; a chain is reported at its shortest prefix wanted accepts."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, str] = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy" or a.name.startswith("numpy."):
                    bound[a.asname or "numpy"] = a.name if a.asname else "numpy"  # import numpy.linalg binds numpy
                    if wanted(a.name):
                        found.append(f"{node.lineno}: import {a.name}")
        elif isinstance(node, ast.ImportFrom) and node.module and (node.module + ".").startswith("numpy."):
            names = {a.asname or a.name: f"{node.module}.{a.name}" for a in node.names}
            bound.update(names)
            if any(wanted(name) for name in names.values()):
                found.append(f"{node.lineno}: from {node.module} import")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = _dotted(node, bound)
            if name and wanted(name) and not wanted(_dotted(node.value, bound) or ""):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(found)


def _is_numpy_random(name: str) -> bool:
    return (name + ".").startswith("numpy.random.")


def _is_lapack_or_geomspace(name: str) -> bool:
    """A least-squares fit, geomspace, or anything of numpy.linalg."""
    return name.rsplit(".", 1)[-1] in ("polyfit", "lstsq", "geomspace") or name.startswith("numpy.linalg.")


def test_no_module_uses_numpy_random() -> None:
    """Every seeded draw comes from generators.SeededStream, and loading
    numpy.random would cost each process about 6 MB of memory."""
    modules = sorted(SRC.glob("*.py"))
    assert {p.name: _numpy_uses(p, _is_numpy_random) for p in modules} == {p.name: [] for p in modules}


def _public_methods(cls: type) -> list[str]:
    return sorted(name for name, value in vars(cls).items() if not name.startswith("_") and inspect.isfunction(value))


def _imports_random(path: Path) -> bool:
    """Whether the module imports Python's random module or a name from it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name == "random" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and not node.level and node.module == "random":
            return True
    return False


def test_the_seeded_stream_draws_only_what_draws_names() -> None:
    """SeededStream is random.Random with the integers draw of the
    generators.Draws protocol added, and no module but generators imports
    random, so no second stream draws beside it."""
    assert issubclass(SeededStream, random.Random)
    assert sorted(k for k, v in vars(SeededStream).items() if inspect.isfunction(v)) == ["__init__", "integers"]
    assert _public_methods(Draws) == ["integers", "uniform"] and "uniform" in vars(random.Random)
    assert [p.name for p in sorted(SRC.glob("*.py")) if _imports_random(p)] == ["generators.py"]


def test_no_module_calls_lapack_or_geomspace() -> None:
    """The order fit is zeros._slope and its radii are zeros._RADII: the
    first np.polyfit pages in about 1.3 MB of OpenBLAS code, which every
    order request's peak resident set would count.  The order directions
    are scaled to unit length with math.hypot, so no module needs
    numpy.linalg at all."""
    modules = sorted(SRC.glob("*.py"))
    assert {p.name: _numpy_uses(p, _is_lapack_or_geomspace) for p in modules} == {p.name: [] for p in modules}


def test_the_numpy_random_finder_sees_imports_and_attributes(tmp_path: Path) -> None:
    path = tmp_path / "module.py"
    path.write_text(
        "import numpy as np\nimport numpy.random\nfrom numpy import random\nfrom numpy.random import default_rng\n"
        "import random as stdlib_random\nrng = np.random.default_rng(0)\nx = numpy.random.normal\n"
        "y = stdlib_random.random()\nz = np.linalg.norm\n",
        encoding="utf-8",
    )
    assert _numpy_uses(path, _is_numpy_random) == [
        "2: import numpy.random",
        "3: from numpy import",
        "4: from numpy.random import",
        "6: np.random",
        "7: numpy.random",
    ]


def test_the_lapack_finder_sees_imports_and_attributes(tmp_path: Path) -> None:
    path = tmp_path / "module.py"
    path.write_text(
        "import numpy as np\nimport numpy.linalg as la\nfrom numpy import polyfit\nfrom numpy.linalg import norm\n"
        "from numpy.linalg import svd as s\nfrom numpy import linalg\na = np.polyfit(x, y, 1)\nb = np.linalg.lstsq\n"
        "c = np.geomspace(1, 2, 3)\nd = np.linalg.norm(v)\ne = la.solve\nf = linalg.norm\n"
        "g = np.polynomial.polynomial.polyfit\nh = scipy.linalg.lstsq\ni = np.linspace\n",
        encoding="utf-8",
    )
    assert _numpy_uses(path, _is_lapack_or_geomspace) == [
        "10: np.linalg.norm",
        "11: la.solve",
        "12: linalg.norm",
        "13: np.polynomial.polynomial.polyfit",
        "3: from numpy import",
        "4: from numpy.linalg import",
        "5: from numpy.linalg import",
        "7: np.polyfit",
        "8: np.linalg.lstsq",
        "9: np.geomspace",
    ]


_PARTIALS = ("grad", "d_z1", "d_z1bar", "d_z2", "d_z2bar", "magnitude")


def _value_only_call(node: ast.AST) -> bool:
    """A call that passes partials=False, the literal, by keyword."""
    return isinstance(node, ast.Call) and any(
        k.arg == "partials" and isinstance(k.value, ast.Constant) and k.value.value is False for k in node.keywords
    )


def _partial_uses(path: Path) -> list[str]:
    """Where the module reads a jet's partials or magnitude, as an
    attribute or through getattr with a literal name, and where it names
    grid_jets other than as the callee of a call with partials=False."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callees = {id(node.func) for node in ast.walk(tree) if _value_only_call(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _PARTIALS:
            found.append(node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and any(isinstance(a, ast.Constant) and a.value in _PARTIALS for a in node.args[1:])
        ):
            found.append(node)
        elif (
            (isinstance(node, ast.Name) and node.id == "grid_jets")
            or (isinstance(node, ast.Attribute) and node.attr == "grid_jets")
        ) and id(node) not in callees:
            found.append(node)
    return sorted(f"{node.lineno}: {ast.unparse(node)}" for node in found)


def test_zeros_evaluates_values_only() -> None:
    """Zero and pole tests and the order fit read values and events: each
    grid_jets call in zeros passes partials=False, so no block computes or
    holds a gradient, and no partial is read there."""
    assert _partial_uses(SRC / "zeros.py") == []
    tree = ast.parse((SRC / "zeros.py").read_text(encoding="utf-8"))
    assert sum(map(_value_only_call, ast.walk(tree))) == 3  # the zero test, the pole test's walk of f, the fit


def test_the_partials_finder_sees_reads_and_full_walks(tmp_path: Path) -> None:
    path = tmp_path / "module.py"
    path.write_text(
        "from qfc import jets\nfrom qfc.jets import grid_jets\n"
        "(a,), e = grid_jets(t, z, partials=False)\nb = jets.grid_jets(t, z, partials=False)\n"
        "c = grid_jets(t, z)\nd = jets.grid_jets(t, z, partials=True)\ne = grid_jets(t, z, partials=flag)\n"
        "f = grid_jets\ng = a.grad.real\nh = a.d_z1bar\ni = a.magnitude()\nk = getattr(a, 'd_z2')\n"
        "grad = a.val.real\nm = abs(a.val)\n",
        encoding="utf-8",
    )
    assert _partial_uses(path) == [
        "10: a.d_z1bar",
        "11: a.magnitude",
        "12: getattr(a, 'd_z2')",
        "5: grid_jets",
        "6: jets.grid_jets",
        "7: grid_jets",
        "8: grid_jets",
        "9: a.grad",
    ]
