"""Source hygiene: no unused import, no unreached definition and no
write-only attribute.

Every module of ``src/haarfactor`` is parsed with :mod:`ast`.  An import
must be used by code in its module (a name listed in ``__all__`` counts as
used; ``__init__.py`` re-exports and is exempt).  Every module-level
function and class, public or private, must be reached from ``cli.main``,
from a module's top-level statements or from a paper object listed in
``PAPER_OBJECTS``, so that no surface is kept that nothing uses.  An
attribute that ``src/`` assigns as ``self.<name>`` must be read as
``.<name>`` somewhere in ``src/``, ``tests/`` or ``bench/``, or be named in
a record row of ``serialize.py`` (which reads it by name), so that no
state is kept that nothing reads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "haarfactor"
MODULES = sorted(SRC.glob("*.py"))
READERS = [
    path
    for pattern in ("src/haarfactor", "tests", "bench", "bench/tests")
    for path in sorted((ROOT / pattern).glob("*.py"))
]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if _is_all(node):
            return set(ast.literal_eval(node.value))
    return set()


def _bound_imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _loaded_names(tree: ast.Module) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Public names that no command reaches, each kept because it realizes a
# statement of the paper, or a classical fact, that the named test checks.
PAPER_OBJECTS = {
    "lambda_pm_moments": "moments of the half-support averages lambda+- (acceptance test_02)",
    "conditional_expectation": "Haar functions are martingale differences (acceptance test_09)",
    "project": "analysis inverts synthesis: project(realize(c)) == c (acceptance test_09)",
    "burkholder_check": "sign flips cost at most p* - 1, Burkholder (acceptance test_09)",
    "block_span_project": "the block-span projection of X_{p,w} has norm one (acceptance test_08)",
    "star_property": "condition (*) on the weights of X_{p,w} (TestStarProperty)",
    "condition_star": "the block level that makes the Chebyshev failures improbable (TestConditionStar)",
    "eval_statistic": "the block statistics Y, W and Z at one sign pattern (TestEvaluations)",
}


def _names_used(node: ast.AST) -> set[str]:
    """Every name and attribute name that occurs in ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _unreached(trees: dict[str, ast.Module], roots: set[str]) -> dict[str, str]:
    """Each module-level definition that nothing reaches, with its
    ``module:line``.

    Reaching goes by name: a root, or a name or attribute used anywhere in a
    module's top-level statements other than definitions and ``__all__``,
    reaches every definition of that name in any module, and a reached
    definition reaches every name its whole node uses.  This over-approximates
    what runs, so a definition reported here is reached from no root."""
    defined: dict[str, list[tuple[str, ast.stmt]]] = {}
    frontier = set(roots)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defined.setdefault(node.name, []).append((module, node))
            elif not _is_all(node):
                frontier |= _names_used(node)
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in defined and name not in reached:
            reached.add(name)
            for _, node in defined[name]:
                frontier |= _names_used(node)
    return {
        name: f"{module}:{node.lineno}"
        for name, nodes in defined.items() if name not in reached
        for module, node in nodes
    }


def _self_assigned(tree: ast.Module) -> dict[str, int]:
    """Each attribute a module assigns as ``self.<name>``, with its line."""
    return {
        node.attr: node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def _attributes_read(tree: ast.Module) -> set[str]:
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _record_attributes(tree: ast.Module) -> set[str]:
    """Attributes named in record rows ``(payload key, attribute, ...)``;
    ``a.b`` names both ``a`` and ``b``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts[:2]
        ):
            names.update(node.elts[1].value.split("."))
    return names


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _loaded_names(tree) | _exported(tree)
    unused = {
        name: line for name, line in _bound_imports(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_every_definition_is_reached():
    trees = {path.name: _tree(path) for path in MODULES if path.name != "__init__.py"}
    dead = _unreached(trees, {"main", *PAPER_OBJECTS})
    assert not dead, (
        f"definitions that neither cli.main nor a paper object reaches: {dead}"
    )
    # the table lists only what the command line does not reach
    assert set(PAPER_OBJECTS) <= set(_unreached(trees, {"main"}))


def test_the_checks_see_a_dead_helper_and_an_unused_import():
    tree = ast.parse(
        "import os\nfrom math import fsum\n\n"
        "def _dead():\n    return fsum([])\n\n"
        "def _alive():\n    return 1\n\nVALUE = _alive()\n"
    )
    assert set(_bound_imports(tree)) - _loaded_names(tree) == {"os"}
    assert set(_unreached({"toy.py": tree}, set())) == {"_dead"}


def test_the_reach_check_sees_dead_public_and_private_definitions():
    tree = ast.parse(
        "import helpers\n\n"
        "def main():\n    return helpers._through_attribute()\n\n"
        "def _through_attribute():\n    return 1\n\n"
        "def dead_public():\n    return _dead_private()\n\n"
        "def _dead_private():\n    return 2\n\n"
        "__all__ = ['main', 'dead_public']\n"
    )
    assert _unreached({"toy.py": tree}, {"main"}) == {
        "dead_public": "toy.py:9", "_dead_private": "toy.py:12",
    }


def test_every_assigned_attribute_is_read():
    read = set().union(*(_attributes_read(_tree(path)) for path in READERS))
    read |= _record_attributes(_tree(SRC / "serialize.py"))
    unread = [
        f"{path.name}:{line} self.{name}"
        for path in MODULES
        for name, line in _self_assigned(_tree(path)).items()
        if name not in read
    ]
    assert not unread, f"attributes nothing reads: {unread}"


def test_the_attribute_check_sees_write_only_state():
    tree = ast.parse(
        "class Box:\n"
        "    def __init__(self, items):\n"
        "        self.items = items\n"
        "        self.count, self.spare = len(items), None\n\n"
        "    def size(self):\n"
        "        return self.count\n\n"
        "ROWS = ((\"items\", \"items.first\", None),)\n"
    )
    assigned = set(_self_assigned(tree))
    assert assigned == {"items", "count", "spare"}
    assert assigned - _attributes_read(tree) - _record_attributes(tree) == {"spare"}


THREADED = {"threading", "concurrent", "multiprocessing"}


def _threaded_imports(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            found.add(node.module.split(".")[0])
    return found & THREADED


def test_one_module_starts_threads():
    importers = [path.name for path in MODULES if _threaded_imports(_tree(path))]
    assert importers == ["haarsys.py"], (
        "threads start only from haarsys._striped; reuse it instead of a second pool"
    )


def test_the_thread_check_sees_every_spelling():
    tree = ast.parse(
        "import threading\nimport concurrent.futures as cf\n"
        "from multiprocessing import Pool\nimport os\nfrom . import grids\n"
    )
    assert _threaded_imports(tree) == THREADED


CACHES = {"cache", "lru_cache"}


def _constant(tree: ast.Module, node: ast.expr):
    """The value of an expression of number literals, operators and
    module-level names bound to such expressions; None for anything else."""
    allowed = (ast.Constant, ast.Name, ast.Load, ast.BinOp, ast.UnaryOp,
               ast.operator, ast.unaryop)
    if not all(isinstance(sub, allowed) for sub in ast.walk(node)):
        return None
    scope = {}
    for name in {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}:
        bound = [
            stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name for t in stmt.targets)
        ]
        scope[name] = _constant(tree, bound[-1]) if bound else None
    try:
        return eval(compile(ast.Expression(node), "<constant>", "eval"),
                    {"__builtins__": {}}, scope)
    except TypeError:  # an operator applied to None
        return None


def _unbounded_caches(tree: ast.Module) -> list[int]:
    """The lines that use a functools cache other than an ``lru_cache``
    whose ``maxsize`` is given as a fixed positive integer: every
    ``cache``, a bare ``lru_cache`` decorator, ``lru_cache()`` with the
    default size, and a ``maxsize`` of ``None`` or of no fixed value, under
    any import spelling."""
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in CACHES:
                    names[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "functools":
                    modules.add(alias.asname or alias.name)

    def cache_kind(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr in CACHES
        ):
            return node.attr
        return None

    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        kind = cache_kind(node)
        if kind is None:
            continue
        call = calls.get(id(node))
        if kind == "lru_cache" and call is not None:
            sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            size = _constant(tree, sizes[0]) if sizes else None
            if type(size) is int and size > 0:
                continue
        lines.append(node.lineno)
    return sorted(lines)


def test_every_cache_has_a_fixed_size():
    unbounded = {
        path.name: lines for path in MODULES if (lines := _unbounded_caches(_tree(path)))
    }
    assert not unbounded, (
        f"functools caches without a fixed integer maxsize (module: lines) {unbounded}"
    )


def test_the_cache_check_sees_every_spelling():
    tree = ast.parse(
        "import functools\nimport functools as ft\n"
        "from functools import cache, lru_cache\nfrom functools import cache as memo\n"
        "SIZE = 1 << 4\nNONE = None\n"
        "@functools.cache\ndef a(): pass\n"          # 7
        "@cache\ndef b(): pass\n"                    # 9
        "@memo\ndef c(): pass\n"                     # 11
        "@lru_cache\ndef d(): pass\n"                # 13
        "@lru_cache()\ndef e(): pass\n"              # 15
        "@ft.lru_cache(maxsize=None)\ndef f(): pass\n"  # 17
        "@lru_cache(NONE)\ndef g(): pass\n"          # 19
        "h = lru_cache(maxsize=len('ab'))(a)\n"      # 21
        "@lru_cache(maxsize=64)\ndef ok1(): pass\n"
        "@functools.lru_cache(SIZE, typed=True)\ndef ok2(): pass\n"
        "ok3 = ft.lru_cache(maxsize=SIZE * 2)(a)\n"
    )
    assert _unbounded_caches(tree) == [7, 9, 11, 13, 15, 17, 19, 21]
