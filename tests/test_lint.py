"""Every name a module of ``src/wtgsolve``, ``tests`` or ``bench`` imports
is read somewhere in it, every function of ``src/wtgsolve`` is reached from it
(or kept for a reason named in ``KEPT``), no module of ``src/wtgsolve``
imports ``dataclasses``, and the solver computes without floats: the one
float in ``src/wtgsolve`` is ``core.INF``, the +infinity of extended
values, and the code that computes on integers has no ``/``: ``plf``,
``regions``, ``cycles`` and the plans of ``unfold``."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wtgsolve"
BENCH = TESTS.parent / "bench"


def unused_imports(source: str) -> list[str]:
    """The names bound by imports of ``source`` that it never reads;
    ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports, relative
    imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dataclasses(path):
    """Every ``wtg solve`` imports the solver, and ``dataclasses`` (with
    the ``inspect`` it loads) and its code generation cost about a third
    of that: records are named tuples or slotted classes."""
    assert "dataclasses" not in imported_modules(path.read_text())


def test_the_scan_finds_an_import():
    source = ("import os.path, json as j\nfrom dataclasses import field\n"
              "from . import core\nfrom .plf import PLF1\n"
              "def f():\n    import inspect\n")
    assert imported_modules(source) == {"os", "json", "dataclasses",
                                        "inspect"}


def float_uses(source: str, allow_inf: bool = False) -> list[str]:
    """Each float literal and ``float(...)`` call of ``source``, as
    ``"line: code"`` in line order; with ``allow_inf``, a module-level
    ``INF = float("inf")`` is let through."""
    tree = ast.parse(source)
    allowed = {id(node.value) for node in tree.body if allow_inf
               and ast.unparse(node) == "INF = float('inf')"}
    found = [node for node in ast.walk(tree) if id(node) not in allowed and (
        isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "float")]
    return [f"{node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: node.lineno)]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    + sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["os", "b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_floats(path):
    assert float_uses(path.read_text(), allow_inf=path.name == "core.py") \
        == []


def test_the_scan_finds_a_float():
    source = 'INF = float("inf")\nx = 1e3 * 0.5\ndef f(y):\n    return float(y)\n'
    assert float_uses(source) == ["1: float('inf')", "2: 1000.0", "2: 0.5",
                                  "4: float(y)"]
    assert float_uses(source, allow_inf=True) == ["2: 1000.0", "2: 0.5",
                                                  "4: float(y)"]


def true_divisions(source: str) -> list[str]:
    """Each ``/`` and ``/=`` of ``source``, as ``"line: code"`` in line
    order.  On two ``int``s ``/`` yields a ``float``, which
    :func:`float_uses` cannot see."""
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.Div)]
    return [f"{node.lineno}: {ast.unparse(node)}"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_no_true_division_in_plf():
    """``plf`` computes on integer numerators: floor division only."""
    assert true_divisions((SRC / "plf.py").read_text()) == []


def function_source(path: Path, name: str) -> str:
    """The source of the top-level function ``name`` of ``path``."""
    source = path.read_text()
    node, = [node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return ast.get_source_segment(source, node)


@pytest.mark.parametrize("where", ["regions.py", "cycles.py",
                                   "unfold.py:_chord", "unfold.py:_plan"])
def test_no_true_division_where_ints_flow(where):
    """Region corners are 0/1 ints, and so are the chords and plans that
    ``unfold`` reads off them: an int ``/`` int would be a float."""
    path, _, name = where.partition(":")
    source = (function_source(SRC / path, name) if name
              else (SRC / path).read_text())
    assert true_divisions(source) == []


def test_the_scan_finds_a_true_division():
    source = "a = 1 // 2\nb = a / 3\nb /= 2\nc = (a + b) / (a - b)\n"
    assert true_divisions(source) == ["2: a / 3", "3: b /= 2",
                                      "4: (a + b) / (a - b)"]


# Functions and methods that no code of ``src/wtgsolve`` reads, each kept for
# a caller outside it.
KEPT = {
    "unfold.decide": "public API: is the value at most a threshold?",
    "gameio.save_game": "public API: writes what gameio.load_game reads",
    "oracle.GridOracle.value_at": "public API: the oracle's value at a point",
    "oracle.GridOracle.play": "public API: a grid-optimal play",
    "regions.elapsed_region_feasible":
        "bench/tracing.py wraps it and counts its feasibility queries",
    "cycles.CornerPointGraph.graph":
        "bench/tracing.py counts corner edges through it",
    "cycles.CornerPointGraph.number_of_edges":
        "bench/tracing.py counts corner edges through it",
}


def unread_functions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and the methods of top-level classes of
    ``sources`` (module name -> source) whose name no module reads, as a
    name or an attribute, named ``module.function`` or
    ``module.Class.method``.  Python itself calls the dunder methods."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions):
                defs = [(node.name, node.name)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{d.name}", d.name) for d in node.body
                        if isinstance(d, functions)]
            else:
                continue
            found += [f"{module}.{qualified}" for qualified, name in defs
                      if name not in read
                      and not (name.startswith("__") and name.endswith("__"))]
    return found


def test_every_function_is_reached():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(unread_functions(sources)) == sorted(KEPT)


def test_the_scan_finds_a_dead_function():
    sources = {
        "a": "def used():\n    return 1\n\ndef dead():\n    return used()\n",
        "b": ("from a import used\n\nclass C:\n    def __init__(self):\n"
              "        self.x = used()\n\n    def m(self):\n        pass\n\n"
              "    def live(self):\n        return self.x\n\n"
              "C().live()\n"),
    }
    assert unread_functions(sources) == ["a.dead", "b.C.m"]
