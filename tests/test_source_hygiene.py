"""Source hygiene: no unused import, no unreached definition and no
write-only attribute.

Every module of ``src/haarfactor`` is parsed with :mod:`ast`.  An import
must be used by code in its module (a name listed in ``__all__`` counts as
used; ``__init__.py`` re-exports and is exempt).  Every module-level
function and class, public or private, and every method and property of
such a class, must be reached from ``cli.main``, from a name that
``bench/`` uses, from a module's top-level statements or from a paper
object listed in ``PAPER_OBJECTS``, so that no surface is kept that nothing
uses.  An
attribute that ``src/`` assigns as ``self.<name>`` must be read as
``.<name>`` somewhere in ``src/``, ``tests/`` or ``bench/``, or be named in
a record row of ``serialize.py`` (which reads it by name), so that no
state is kept that nothing reads; so must every annotated field of a
``@dataclass`` in ``src/``, unless ``src/`` passes its class to
``dataclasses.asdict``, which reads every field.  Likewise a name that a
module's top-level statements assign, other than ``__all__``, must be read
as a name or as ``.<name>`` somewhere in ``src/`` (``__init__.py`` is
exempt), so that no constant outlives the code that read it.  No module-level function
may be a second name for one call, passing its own parameters on unchanged.
A parameter with a default must be passed by some call in ``src/`` or
``bench/``, unless its function is a paper object or ``TEST_SET_DEFAULTS``
names the test that sets it, so that no setting is kept that only tests
use.  A ``**`` expansion of a dict display, or of a conditional expression
of dict displays, passes only the keys written there; any other ``**``
counts as passing every parameter.  Every matrix product in ``src/``
(``@``, ``np.dot``, ``np.matmul``, ``np.einsum`` and their kin) is listed,
counted per function, in ``BLAS_PRODUCTS`` with the ROADMAP item that owns
its bits or why they matter to nothing recorded.

These checks match by name, not by binding, and that is their blind spot:
any use of a name counts for every definition of it.  A member is reached,
and a default passed, by a same-name attribute or call on an unrelated
object: ``tracer.reset()`` in ``bench/`` reaches every ``reset`` method, a
``witness.constant`` field every ``constant`` member, and ``np.power``
every ``power`` member.  The line tracer ``tests/line_reach.py`` sees what
runs; these checks see only what is named.
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

# Public names that neither a command nor `bench/` reaches, each kept
# because it realizes a statement of the paper, or a classical fact, that
# the named test checks.
PAPER_OBJECTS = {
    "lambda_pm_moments": "moments of the half-support averages lambda+- (acceptance test_02)",
    "conditional_expectation": "Haar functions are martingale differences (acceptance test_09)",
    "project": "analysis inverts synthesis: project(realize(c)) == c (acceptance test_09)",
    "burkholder_check": "sign flips cost at most p* - 1, Burkholder (acceptance test_09)",
    "block_span_project": "the block-span projection of X_{p,w} has norm one (acceptance test_08)",
    "impartial_equivalence": (
        "game blocks are impartially equivalent to the unit vectors, sampled on the "
        "ambient vectors (acceptance test_08)"
    ),
    "xpw_norms": "the X_{p,w} norm of each sampled ambient combination (acceptance test_08)",
    "star_property": "condition (*) on the weights of X_{p,w} (TestStarProperty)",
    "condition_star": (
        "the block level that makes the Chebyshev failures improbable "
        "(TestConditionStar)"
    ),
    "eval_statistic": "the block statistics Y, W and Z at one sign pattern (TestEvaluations)",
    # methods and properties, as ``Class.member``
    "DyadicInterval.left": "the exact endpoints of a dyadic interval (test_endpoints_are_exact)",
    "DyadicInterval.right": "the exact endpoints of a dyadic interval (test_endpoints_are_exact)",
    "DyadicInterval.children": "an interval splits into its two halves (test_children_partition)",
    "DyadicInterval.contains": "an interval contains its halves (test_children_partition)",
    "DyadicInterval.indicator_values": "1_I = h_I^2 on the grid (test_indicator_matches_square)",
    "ProductGrid.cell_measure": (
        "a product cell has measure 2^-(sum of resolutions) "
        "(test_measure_is_exact)"
    ),
    "GridFunction.scaled": "grid functions form a vector space (test_add_and_scale)",
    "BasisRegistry.standard": "the standard truncation of copies 1..n (TestRegistry)",
    "OperatorMatrix.identity": (
        "the identity factors through itself exactly "
        "(test_identity_factors_exactly)"
    ),
    "OperatorMatrix.zero": (
        "I - 0 is the large branch of the dichotomy "
        "(test_zero_operator_factors_complement)"
    ),
    "WeightSequence.explicit": "X_{p,w} for given weights (test_explicit_weights_and_budgets)",
    "XpwVector.norm": "the X_{p,w} norm of a vector (test_vector_sugar)",
    "GameTranscript.block_vectors": (
        "the game's blocks as vectors of X_{p,w} "
        "(test_block_vectors_share_one_ambient)"
    ),
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


def _attributes_used(node: ast.AST) -> set[str]:
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _is_member(node: ast.stmt) -> bool:
    """A method or property of a class, other than a special ``__name__``
    method, which Python calls without naming it."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def _unreached(trees: dict[str, ast.Module], roots: set[str]) -> dict[str, str]:
    """Each definition that nothing reaches, with its ``module:line``: a
    module-level function or class by its name, and a method or property of
    a module-level class as ``Class.member``.

    Reaching goes by name.  A root, or a name or attribute used anywhere in
    a module's top-level statements other than definitions and ``__all__``,
    reaches every module-level definition of that name in any module; a
    root or an attribute, ``x.name``, also reaches every member of that
    name.  A reached function or member reaches what its whole node uses; a
    reached class, what its decorators, bases and body use outside its
    members.  This over-approximates what runs, so a definition reported
    here is reached from no root."""
    defined: dict[str, list[tuple[str, str, list[ast.AST]]]] = {}
    members: dict[str, list[tuple[str, str, list[ast.AST]]]] = {}
    names, attributes = set(roots), set(roots)
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                if not _is_all(node):
                    names |= _names_used(node)
                    attributes |= _attributes_used(node)
                continue
            parts = [node]
            if isinstance(node, ast.ClassDef):
                parts = [*node.decorator_list, *node.bases, *node.keywords]
                for sub in node.body:
                    if not _is_member(sub):
                        parts.append(sub)
                        continue
                    where = (f"{node.name}.{sub.name}", f"{module}:{sub.lineno}", [sub])
                    members.setdefault(sub.name, []).append(where)
            where = (node.name, f"{module}:{node.lineno}", parts)
            defined.setdefault(node.name, []).append(where)
    reached: set[tuple[str, bool]] = set()
    frontier = {(name, False) for name in names} | {(name, True) for name in attributes}
    while frontier:
        key = frontier.pop()
        name, is_member = key
        table = members if is_member else defined
        if key in reached or name not in table:
            continue
        reached.add(key)
        for _, _, parts in table[name]:
            for part in parts:
                frontier |= {(used, False) for used in _names_used(part)}
                frontier |= {(used, True) for used in _attributes_used(part)}
    return {
        qualified: where
        for is_member, table in ((False, defined), (True, members))
        for name, entries in table.items() if (name, is_member) not in reached
        for qualified, where, _ in entries
    }


# `bench/` calls the package too: every name and attribute its modules use.
BENCH_NAMES = set().union(
    *(_names_used(_tree(path)) for path in sorted((ROOT / "bench").glob("*.py")))
)


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
    paper = {name.rsplit(".", 1)[-1] for name in PAPER_OBJECTS}
    dead = _unreached(trees, {"main", *BENCH_NAMES, *paper})
    assert not dead, (
        "definitions that neither cli.main, bench/ nor a paper object reaches: "
        f"{dead}"
    )
    # the table lists only what the command line does not reach
    assert set(PAPER_OBJECTS) <= set(_unreached(trees, {"main"}))


def test_the_reach_check_sees_dead_members():
    tree = ast.parse(
        "class Box:\n"
        "    def __init__(self):\n        self.items = self._fill()\n\n"
        "    def _fill(self):\n        return []\n\n"
        "    @property\n    def size(self):\n        return len(self.items)\n\n"
        "    def dead(self):\n        return self.size\n\n"
        "    def named_only(self):\n        return 0\n\n"
        "def main(named_only=None):\n    return Box()\n"
    )
    # __init__ runs with its class; a bare name reaches no member
    assert _unreached({"toy.py": tree}, {"main"}) == {
        "Box.size": "toy.py:9", "Box.dead": "toy.py:12", "Box.named_only": "toy.py:15",
    }
    assert _unreached({"toy.py": tree}, {"main", "dead"}) == {
        "Box.named_only": "toy.py:15",
    }


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


# Parameters with a default that no call in `src/` or `bench/` passes, each
# kept because the named test sets it.
TEST_SET_DEFAULTS = {
    "main(argv)": "the command line run in process (test_cli.py::invoke)",
    "DiagonalAverageWitness.verify(tol)": (
        "a block average holds within 1e-12 (acceptance test_03, test_04 and test_07)"
    ),
    "exact_moments(t_norm_upper)": (
        "the Z variance against a given norm bound (test_Z_pinned_example)"
    ),
    "reduce_to_scalar_finite(t_norm_upper)": (
        "the paper-mode level floor and a derandomized level selection from a "
        "given norm bound (test_golden_bytes.py scalar_paper and "
        "scalar_derandomized, test_reduction.py TestReduceToScalarPaperMode)"
    ),
}


def _call_sites(tree: ast.Module) -> dict[str, list[ast.Call]]:
    """Every call of a module by the name it calls: ``f`` for ``f(...)`` and
    ``x.f(...)``, and ``C`` for ``cls(...)`` inside a classmethod of
    ``C``."""
    calls: dict[str, list[ast.Call]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name != "cls":
                calls.setdefault(name, []).append(node)
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "classmethod"
                    for d in method.decorator_list
                ):
                    calls.setdefault(node.name, []).extend(
                        sub for sub in ast.walk(method) if isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name) and sub.func.id == "cls"
                    )
    return calls


def _expanded(value: ast.expr, names: list[str]) -> set[str]:
    """The parameters a ``**`` expansion of ``value`` may pass: the keys a
    dict display writes, or those of either branch of a conditional
    expression, and any of ``names`` for every other operand."""
    if isinstance(value, ast.IfExp):
        return _expanded(value.body, names) | _expanded(value.orelse, names)
    if isinstance(value, ast.Dict) and all(
        isinstance(key, ast.Constant) for key in value.keys
    ):
        return {key.value for key in value.keys}
    return set(names)


def _passed(call: ast.Call, positional: list[str], names: list[str]) -> set[str]:
    """The parameters a call passes: by position, by keyword, or through a
    ``*`` expansion, which may pass any of them, or a ``**`` expansion,
    which passes what :func:`_expanded` finds."""
    passed = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            passed.update(positional[i:])
            break
        passed.update(positional[i : i + 1])
    for keyword in call.keywords:
        passed.update(
            _expanded(keyword.value, names) if keyword.arg is None else [keyword.arg]
        )
    return passed


def _unpassed_defaults(
    trees: dict[str, ast.Module], calls: dict[str, list[ast.Call]]
) -> dict[str, str]:
    """Each parameter with a default that no call in ``calls`` passes, as
    ``name(parameter)`` with its ``module:line``: a module-level function
    by its name, a method of a module-level class as ``Class.member``.

    Calls match by name: ``f(...)`` and ``x.f(...)`` call every function
    and member ``f``, and ``C(...)`` calls ``C.__init__``.  A member's
    positions start after ``self`` or ``cls``."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                functions = [
                    (f"{node.name}.{sub.name}",
                     node.name if sub.name == "__init__" else sub.name, sub,
                     not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in sub.decorator_list))
                    for sub in node.body if isinstance(sub, ast.FunctionDef)
                ]
            else:
                continue
            for qualified, called_as, function, bound in functions:
                args = function.args
                positional = [a.arg for a in (*args.posonlyargs, *args.args)]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
                positional = positional[1:] if bound else positional
                names = positional + [a.arg for a in args.kwonlyargs]
                passed = set().union(
                    *(_passed(call, positional, names)
                      for call in calls.get(called_as, []))
                )
                for param in defaulted:
                    if param not in passed:
                        found[f"{qualified}({param})"] = f"{module}:{function.lineno}"
    return found


def test_every_default_is_passed():
    trees = {path.name: _tree(path) for path in MODULES}
    calls: dict[str, list[ast.Call]] = {}
    for path in [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]:
        for name, sites in _call_sites(_tree(path)).items():
            calls.setdefault(name, []).extend(sites)
    unpassed = _unpassed_defaults(trees, calls)
    settings = {
        key: where for key, where in unpassed.items()
        if key.split("(")[0] not in PAPER_OBJECTS and key not in TEST_SET_DEFAULTS
    }
    assert not settings, (
        "parameters with a default that no call in src/ or bench/ passes "
        f"(name(parameter): module:line) {settings}; fix the value instead"
    )
    # the table lists only what no call passes
    assert set(TEST_SET_DEFAULTS) <= set(unpassed)


def test_the_default_check_sees_every_unpassed_setting():
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    return f(0, 1, d=4)\n\n"       # 1
        "def spread(a=1, b=2, *, c=3):\n    pass\n\n"                  # 4
        "def unused(x=0):\n    return spread(*args)\n\n"               # 7
        "class Box:\n"                                                 # 10
        "    def __init__(self, size=1, fill=0):\n        self.size = size\n\n"
        "    @classmethod\n    def sized(cls, n):\n        return cls(n)\n\n"
        "    def grow(self, step=1, limit=9):\n        return other.grow(2)\n\n"
        "    @staticmethod\n    def make(kind='a', **extra):\n        return Box.make(kind)\n\n"
        "    def keyed(self, *, key=None):\n        return keyed(**options)\n\n\n"
        "def tuned(x, *, rate=1, depth=2, width=3):\n"                 # 29
        "    return tuned(0, **({} if x else {'rate': 2}), **{'depth': 3})\n"
    )
    assert _unpassed_defaults({"toy.py": tree}, _call_sites(tree)) == {
        "f(c)": "toy.py:1",
        "spread(c)": "toy.py:4",
        "unused(x)": "toy.py:7",
        "Box.__init__(fill)": "toy.py:11",
        "Box.grow(limit)": "toy.py:18",
        "tuned(width)": "toy.py:29",
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated ``@dataclass``, with or without
    arguments, by its bare name or as ``dataclasses.dataclass``."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(tree: ast.Module) -> dict[tuple[str, str], int]:
    """Each annotated field ``(class, name)`` of a ``@dataclass`` class in
    the module, with its line."""
    return {
        (node.name, stmt.target.id): stmt.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _asdict_classes(trees: dict[str, ast.Module]) -> dict[str, str | None]:
    """The class of each value the modules pass to ``asdict``, keyed by the
    call's ``module:line``: the argument must be a name that its function
    assigns from a call of a function whose return annotation names a
    class; ``None`` where it is not, so that the call cannot go unseen."""
    returns = {
        node.name: node.returns.id
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and isinstance(node.returns, ast.Name)
    }
    found = {}
    for module, tree in trees.items():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            made = {
                target.id: node.value.func.id
                for node in ast.walk(function)
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                for target in node.targets if isinstance(target, ast.Name)
            }
            for call in ast.walk(function):
                if not isinstance(call, ast.Call) or "asdict" not in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)
                ):
                    continue
                arg = call.args[0] if call.args else None
                name = arg.id if isinstance(arg, ast.Name) else None
                found[f"{module}:{call.lineno}"] = returns.get(made.get(name))
    return found


def test_every_assigned_attribute_is_read():
    """Every ``self.<name>`` store and every dataclass field is read, unless
    ``asdict`` reads the whole object."""
    trees = {path.name: _tree(path) for path in MODULES}
    read = set().union(*(_attributes_read(_tree(path)) for path in READERS))
    read |= _record_attributes(trees["serialize.py"])
    whole = _asdict_classes(trees)
    assert None not in whole.values(), f"asdict of a value of no known class: {whole}"
    unread = [
        f"{module}:{line} self.{name}"
        for module, tree in trees.items()
        for name, line in _self_assigned(tree).items()
        if name not in read
    ] + [
        f"{module}:{line} {cls}.{name}"
        for module, tree in trees.items()
        for (cls, name), line in _dataclass_fields(tree).items()
        if name not in read and cls not in whole.values()
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


def test_the_attribute_check_sees_unread_dataclass_fields():
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import asdict, dataclass\n\n"
        "@dataclass(frozen=True)\n"
        "class Result:\n"
        "    value: float\n"
        "    spare: float\n"
        "    limit = 3\n\n"
        "@dataclasses.dataclass\n"
        "class Pair:\n"
        "    first: int\n"
        "    second: int = 0\n\n"
        "@dataclass\n"
        "class Report:\n"
        "    mean: float\n\n"
        "class Plain:\n"
        "    hint: int\n\n"
        "def measure() -> Report:\n"
        "    return Report(0.0)\n\n"
        "def main(pair):\n"
        "    report = measure()\n"
        "    return Result(pair.first, 1.0).value, asdict(report)\n"
    )
    fields = _dataclass_fields(tree)
    assert set(fields) == {
        ("Result", "value"), ("Result", "spare"), ("Pair", "first"),
        ("Pair", "second"), ("Report", "mean"),
    }
    assert _asdict_classes({"toy.py": tree}) == {"toy.py:27": "Report"}
    read = _attributes_read(tree)
    assert {name for cls, name in fields if cls != "Report" and name not in read} == {
        "spare", "second"
    }
    unknown = ast.parse("from dataclasses import asdict\n\ndef f(x):\n    return asdict(x)\n")
    assert _asdict_classes({"toy.py": unknown}) == {"toy.py:4": None}


def _module_assigned(tree: ast.Module) -> dict[str, int]:
    """Each name the module's top-level statements (definitions aside)
    assign, other than ``__all__``, with its line."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, DEFINITIONS):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id != "__all__":
                        found[sub.id] = node.lineno
    return found


def test_every_module_level_name_is_read():
    trees = {path.name: _tree(path) for path in MODULES}
    read = set().union(
        *(_loaded_names(tree) | _attributes_read(tree) for tree in trees.values())
    )
    unread = [
        f"{module}:{line} {name}"
        for module, tree in trees.items() if module != "__init__.py"
        for name, line in _module_assigned(tree).items()
        if name not in read
    ]
    assert not unread, f"module-level names nothing in src/ reads: {unread}"


def test_the_name_check_sees_an_unread_constant():
    tree = ast.parse(
        "import other\n"
        "__all__ = ['LIMIT']\n"
        "LIMIT = 4\n"
        "_SPARE: int = 8\n"
        "_SEEN, _UNSEEN = 1, 2\n"
        "if LIMIT:\n    _NESTED = 3\n"
        "def size():\n    local = _SEEN\n    return LIMIT + local + other._NESTED\n"
        "class Box:\n    inner = 5\n"
    )
    assigned = _module_assigned(tree)
    assert set(assigned) == {"LIMIT", "_SPARE", "_SEEN", "_UNSEEN", "_NESTED"}
    read = _loaded_names(tree) | _attributes_read(tree)
    assert {name for name in assigned if name not in read} == {"_SPARE", "_UNSEEN"}


def _pure_aliases(tree: ast.Module) -> dict[str, int]:
    """Each module-level function whose body, after its docstring, is one
    ``return`` of one call that takes the function's own parameters
    unchanged (as arguments, or as the object whose method it calls), with
    its line: a second name for that call."""
    found = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if not (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)):
            continue
        call, args = body[0].value, node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        passed = [a.value if isinstance(a, ast.Starred) else a for a in call.args]
        passed += [k.value for k in call.keywords]
        receiver = getattr(call.func, "value", None)
        if isinstance(receiver, ast.Name) and receiver.id in params:
            passed.append(receiver)
        if (all(isinstance(a, ast.Name) for a in passed)
                and sorted(a.id for a in passed) == sorted(params)):
            found[node.name] = node.lineno
    return found


def test_no_function_is_a_pure_alias():
    aliases = {
        path.name: found for path in MODULES if (found := _pure_aliases(_tree(path)))
    }
    assert not aliases, (
        f"functions that only rename one call (module: name: line) {aliases}; "
        "call the target instead"
    )


def test_the_alias_check_sees_every_second_name():
    tree = ast.parse(
        "def plain(x, y):\n    \"\"\"Doc.\"\"\"\n    return f(x, y)\n"       # 1
        "def method(fam, src):\n    return fam.columns(src)\n"           # 4
        "def spread(*args, key, **kw):\n    return g(*args, key=key, **kw)\n"  # 6
        "def thunk():\n    return h()\n"                               # 8
        "def bound(x):\n    return other.columns(x)\n"                  # 10
        "def extra(x):\n    return f(x, 2)\n"
        "def changed(x):\n    return f(x + 1)\n"
        "def dropped(x, y):\n    return f(x)\n"
        "def twice(x):\n    return f(x, x)\n"
        "def two_steps(x):\n    y = f(x)\n    return g(y)\n"
        "def attribute(x):\n    return f(x).T\n"
        "class Box:\n    def size(self):\n        return len(self)\n"
    )
    assert _pure_aliases(tree) == {
        "plain": 1, "method": 4, "spread": 6, "thunk": 8, "bound": 10,
    }


THREADED = {"threading", "concurrent", "multiprocessing"}


def _absolute_imports(tree: ast.Module) -> set[str]:
    """The top-level package of every absolute import in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_one_module_starts_threads():
    importers = [path.name for path in MODULES if _absolute_imports(_tree(path)) & THREADED]
    assert importers == ["haarsys.py"], (
        "threads start only from haarsys._striped; reuse it instead of a second pool"
    )


def test_one_module_imports_orjson():
    importers = [path.name for path in MODULES if "orjson" in _absolute_imports(_tree(path))]
    assert importers == ["serialize.py"], (
        "orjson writes float rows only in serialize._float_rows, where its text "
        "is checked against repr's; render through serialize instead"
    )


def test_the_import_check_sees_every_spelling():
    tree = ast.parse(
        "import threading\nimport concurrent.futures as cf\n"
        "from multiprocessing import Pool\nimport os\nfrom . import grids\n"
        "from orjson import dumps\n"
    )
    assert _absolute_imports(tree) == THREADED | {"os", "orjson"}


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


# Every matrix product in ``src/`` (``@``, ``@=`` and numpy's product
# functions), counted per enclosing function, with what owns its bits: the
# ROADMAP item that moves it to a fixed order, or why its bits matter to no
# artifact and no verdict.  A BLAS product's last bits depend on the kernel
# set and on how its operands sit in memory.
NUMPY_PRODUCTS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}
BLAS_PRODUCTS = {
    ("factorize", "FactorizationWitness.sample_max_ratio"): (
        3, "item 25 deletes the sampled ratio"),
    ("factorize", "_invert_through_blocks"): (
        3, "item 19 Part B (the inverse times PE / scale); item 25 (the sampled "
           "projection-norm estimate)"),
    ("factorize", "_build_witness"): (2, "items 9 and 19 Part B (A T' B)"),
    ("grids", "pairing"): (1, "an int64 product of integer profiles: exact"),
    ("operators", "OperatorMatrix.apply"): (
        1, "items 9 and 19 Part B (T j in interaction_matrix)"),
    ("operators", "neumann_invert"): (1, "item 9 (the stored residual)"),
    ("randsigns", "_target_values"): (2, "item 9 (recorded violation values)"),
    ("randsigns", "_split_chunks"): (
        6, "the sign search's shortlist only: _margin covers any rounding and "
           "_ordered_values decides"),
    ("reduction", "_grow_blocks"): (3, "item 9 (recorded violation values)"),
    ("reduction", "reduce_to_diagonal.constraints"): (
        1, "item 9 (the sign-form coefficients)"),
    ("weightedlp", "_sampled_norms"): (
        1, "impartial_equivalence, an oracle that no command runs and no "
           "artifact reads"),
}


def _products(tree: ast.Module) -> dict[str, int]:
    """The number of matrix products in each function of ``tree``, keyed
    by its dotted scope (``Class.method``, ``outer.inner``), or
    ``<module>`` outside any function."""
    counts: dict[str, int] = {}

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                isinstance(child, (ast.BinOp, ast.AugAssign))
                and isinstance(child.op, ast.MatMult)
            ) or (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Name) and child.func.value.id == "np"
                and child.func.attr in NUMPY_PRODUCTS
            ):
                key = scope or "<module>"
                counts[key] = counts.get(key, 0) + 1
            walk(child, scope)

    walk(tree, "")
    return counts


def test_every_blas_product_has_an_owner():
    found = {
        (path.stem, scope): count
        for path in MODULES for scope, count in _products(_tree(path)).items()
    }
    listed = {site: count for site, (count, _) in BLAS_PRODUCTS.items()}
    assert found == listed, (
        "a matrix product was added or removed: record it in BLAS_PRODUCTS with "
        "the ROADMAP item that owns its bits, or why they do not matter"
    )


def test_the_product_walk_sees_every_spelling():
    tree = ast.parse(
        "import numpy as np\n"
        "X = A @ B\n"
        "def f(a, b):\n    a @= b\n    return np.dot(a, b) + np.matmul(a, b @ a)\n"
        "class K:\n    def g(self, a):\n"
        "        def inner():\n            return np.einsum('i,i', a, a)\n"
        "        return np.tensordot(a, a) + np.inner(a, a) + np.vdot(a, a)\n"
        "def plain(a, b):\n    return a * b + np.sum(a) + other.dot(a)\n"
    )
    assert _products(tree) == {"<module>": 1, "f": 4, "K.g.inner": 1, "K.g": 3}
