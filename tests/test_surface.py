"""The public surface: every public top-level name that a module of
`src/zgap/` defines, and every public method and property of its classes,
has a caller in `src/zgap/` or `perfbench/`.  (NamedTuple fields are
data, not methods, and are not checked.)

A use is a name, an attribute, an imported name, or a string constant equal
to the name (the benchmark tracer wraps functions by attribute name).  Uses
inside the name's own definition, docstrings, comments, the package's
`__init__.py` and `tests/` do not count: a helper that only tests call, or
that the package only re-exports, is dead weight.  No public name is an
alias: no module binds one to a name it imports, and the `factorial` that
`moments`, `lis` and `series` bind is `math.factorial`.  The layering: only
`series` names the integer series engine.  Every class is a
`typing.NamedTuple` record or an exception, and no module imports
`dataclasses`, whose import and generated methods cost a `zgap` process
more start-up than most commands spend working.  No
module uses complex arithmetic or `math.sin`/`math.cos`, the lambda and X
solvers, the prime sieve and the ln 2 test use no `**`, `pow` or libm
routine besides `math.sqrt`, the exact prelude of a certificate uses no
float, `math` name or `**`, and every `lru_cache` is listed with the
traffic that re-reads it.  Imports between the modules run one way: there
is no cycle, whether an import sits at module level or inside a function.
Only `cli` formats values: no module defines `to_json_dict` or
`rational_str`, and no module but `cli` calls `repr`.  The Python floor
in `pyproject.toml` admits no interpreter without the
`sys.get_int_max_str_digits` that `series` and `cli` call.
"""

import ast
import importlib
import math
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "zgap").glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _used_names(node: ast.AST, skip: set[int]) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in skip:
            out.add(sub.value)
    return out


def _definitions(tree: ast.Module):
    """(name, node) for each public top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    # (top-level statement, the names it uses) for every caller file
    statements = [
        (node, _used_names(node, skip))
        for tree, skip in ((tree, _docstrings(tree)) for tree in trees.values())
        for node in tree.body
    ]
    uncalled = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name, definition in _definitions(trees[path])
        if not any(name in used for node, used in statements if node is not definition)
    ]
    assert not uncalled, f"public names with no caller outside tests: {uncalled}"


def _units(tree: ast.Module):
    """The top-level statements of `tree`, each class split into the
    statements of its body."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from node.body
        else:
            yield node


def test_every_public_method_has_a_caller():
    # a method counts as called when its name is used outside its own
    # definition, another method of its class included
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    units = [
        (node, _used_names(node, skip))
        for tree, skip in ((tree, _docstrings(tree)) for tree in trees.values())
        for node in _units(tree)
    ]
    uncalled = [
        f"{path.stem}.{cls.name}.{method.name}"
        for path in MODULES
        for cls in trees[path].body if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not method.name.startswith("_")
        and not any(method.name in used for node, used in units if node is not method)
    ]
    assert not uncalled, f"public methods with no caller outside tests: {uncalled}"


def test_no_public_name_aliases_an_import():
    # an alias such as `Exact = Fraction` gives one type two names and hides
    # nothing: a module uses what it imports under the imported name
    aliases = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        aliases += [
            f"{path.stem}.{name} = {definition.value.id}"
            for name, definition in _definitions(tree)
            if isinstance(definition, (ast.Assign, ast.AnnAssign))
            and isinstance(definition.value, ast.Name) and definition.value.id in imported
        ]
    assert not aliases, f"public names bound to an imported name: {aliases}"


def test_bound_factorials_are_math_factorial():
    # moments, lis and series bind math.factorial by name, where the
    # benchmark tracer counts its calls
    from zgap import lis, moments, series

    assert moments.factorial is lis.factorial is series.factorial is math.factorial


def test_package_exports_only_its_version():
    tree = ast.parse((ROOT / "src" / "zgap" / "__init__.py").read_text(encoding="utf-8"))
    names = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in tree.body)
    assert names == ["__version__"]


def test_only_series_names_the_integer_series_engine():
    # one exact series-determinant engine: other modules call
    # `series.hankel_determinant` or `series.toeplitz_determinant` and never
    # build a grid themselves
    engine = re.compile(r"\bSeriesMatrix\b")
    outside = [
        path.name for path in MODULES
        if path.name != "series.py" and engine.search(path.read_text(encoding="utf-8"))
    ]
    assert not outside, f"modules other than series.py that name the engine: {outside}"


def _imported_packages(tree: ast.AST):
    """The top-level package of each absolute import in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _zgap_modules_imported(tree: ast.AST):
    """The name of each `zgap` module that `tree` imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("zgap."))
        elif isinstance(node, ast.ImportFrom):
            dotted = (["zgap"] if node.level else []) + (node.module.split(".") if node.module else [])
            if dotted == ["zgap"]:
                yield from (alias.name for alias in node.names)
            elif dotted[:1] == ["zgap"]:
                yield dotted[1]


def test_module_imports_form_no_cycle():
    # a module that imports its importer, even inside a function, has to
    # defer one side and hides the layering
    stems = {path.stem for path in MODULES}
    graph = {
        path.stem: set(_zgap_modules_imported(ast.parse(path.read_text(encoding="utf-8")))) & stems
        for path in MODULES
    }
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as error:
        raise AssertionError(f"import cycle between modules: {error.args[1]}") from None
    # `cli` imports these inside its report functions only
    assert graph["cli"] >= {"bounds", "lis", "moments", "series"}


def test_only_cli_formats_values():
    # one artifact format: the library returns plain records, and the cli
    # writes every value through one converter at render time
    formatters = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in ("to_json_dict", "rational_str")):
                formatters.append(f"{path.stem}.{node.name}")
            elif (path.name != "cli.py" and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "repr"):
                formatters.append(f"{path.stem}: repr() at line {node.lineno}")
    assert not formatters, f"value formatting outside cli: {formatters}"


def test_every_class_is_a_named_tuple_or_an_exception():
    # a record validates nothing its producers already build exactly, and
    # compares, prints and unpacks as a tuple
    others = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name, cls in vars(importlib.import_module(f"zgap.{path.stem}")).items()
        if isinstance(cls, type) and cls.__module__ == f"zgap.{path.stem}"
        and getattr(cls, "__orig_bases__", None) != (NamedTuple,)
        and not issubclass(cls, Exception)
    ]
    assert not others, f"classes that are neither a NamedTuple nor an exception: {others}"


def test_no_module_imports_dataclasses():
    importers = [
        path.name for path in sorted((ROOT / "src" / "zgap").glob("*.py"))
        if "dataclasses" in _imported_packages(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not importers, f"modules that import dataclasses: {importers}"


def _complex_or_trigonometric(tree: ast.AST):
    """Each import of `cmath`, call of `complex`, complex literal and use of
    `math.sin` or `math.cos` in `tree`."""
    trig = {"sin", "cos"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name == "cmath")
        elif isinstance(node, ast.ImportFrom) and node.module in ("cmath", "math"):
            if node.module == "cmath":
                yield "cmath"
            yield from (f"math.{alias.name}" for alias in node.names if alias.name in trig)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "complex":
                yield "complex()"
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            yield repr(node.value)
        elif (isinstance(node, ast.Attribute) and node.attr in trig
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield f"math.{node.attr}"


def test_no_module_uses_complex_arithmetic_or_sin_cos():
    # real +, -, *, / and sqrt are correctly rounded on every IEEE platform;
    # complex powers and libm's sin and cos are not, so bits built from them
    # can differ between C libraries
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "zgap").glob("*.py"))}
    users = {name: uses for name, tree in trees.items()
             if (uses := sorted(set(_complex_or_trigonometric(tree))))}
    assert not users, f"modules with complex arithmetic, sin or cos: {users}"


# the lambda and X solvers of `bounds`, and the prime sieve and the ln 2
# test of `moments`, and the math names they may use: sqrt is correctly
# rounded, isqrt, comb and isfinite are exact
CORRECTLY_ROUNDED = {
    "bounds.py": ("_factor_residual", "_root_of_decreasing", "solve_lambda", "_bisect",
                  "solve_x"),
    "moments.py": ("_primes_up_to", "_below_ln2"),
}
ROUNDED_MATH = {"sqrt", "isqrt", "comb", "isfinite"}


def _not_correctly_rounded(node: ast.AST):
    """Each `**`, call of `pow` and `math` name outside ROUNDED_MATH in
    `node`."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.Pow):
            yield "**"
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "pow":
            yield "pow()"
        elif (isinstance(sub, ast.Attribute) and sub.attr not in ROUNDED_MATH
              and isinstance(sub.value, ast.Name) and sub.value.id == "math"):
            yield f"math.{sub.attr}"


def test_solvers_use_only_correctly_rounded_operations():
    # float `**` is C pow, which is not correctly rounded, so the digits of
    # a root found through it can differ between C libraries, and a sieve
    # bound int(n**0.5) that rounds down at a perfect square keeps p**2 prime
    users = {}
    for module, names in CORRECTLY_ROUNDED.items():
        tree = ast.parse((ROOT / "src" / "zgap" / module).read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        users.update({f"{module}:{name}": uses for name in names
                      if (uses := sorted(set(_not_correctly_rounded(functions[name]))))})
    assert not users, f"solvers with **, pow or a libm routine: {users}"


def test_log_form_uses_no_float_power():
    # ROADMAP.md item 10 lists its libm routines, log1p (head) and log
    # (tail); the tail's lam*y**d + R(y) is a Horner pass, not **
    tree = ast.parse((ROOT / "src" / "zgap" / "bounds.py").read_text(encoding="utf-8"))
    function = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                    and node.name == "_log_residual_from_coeffs")
    assert set(_not_correctly_rounded(function)) == {"math.log1p", "math.log", "math.pi"}


# the exact prelude of a certificate: integers and `Fraction` arithmetic only
EXACT_PRELUDE = ("_column_key", "closed_form_x", "derive_params", "_exact_prelude")


def _inexact(node: ast.AST):
    """Each `float(...)` call, float constant, `math` name and `**` in
    `node`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "float":
            yield "float()"
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            yield repr(sub.value)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == "math":
            yield f"math.{sub.attr}"
        elif isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.Pow):
            yield "**"


def test_exact_prelude_is_exact_arithmetic():
    # a float anywhere in the prelude would round a certificate's exact
    # values, and `**` on a Fraction is where one slips in (a negative or
    # fractional exponent); powers of 4 are shifts or integer products
    tree = ast.parse((ROOT / "src" / "zgap" / "bounds.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    users = {name: uses for name in EXACT_PRELUDE
             if (uses := sorted(set(_inexact(functions[name]))))}
    assert not users, f"inexact operations in the exact prelude: {users}"


# The memoised functions of `src/zgap`, each with the traffic that re-reads
# its cache within one process.  A new cache fails here until it is listed.
CACHES = {
    "bounds._exact_prelude": "perturbed_x_values(n) and every later certify_bound(n) re-read "
                             "the prelude of column n",
    "moments._column": "each certificate re-reads its column; every h of a column reads one build",
}


def _cached_functions(node: ast.AST, prefix: str):
    """The dotted name of each function under `node` that an `lru_cache`
    or `cache` decorator wraps."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            for decorator in child.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "id", getattr(target, "attr", None)) in ("lru_cache", "cache"):
                    yield name
            yield from _cached_functions(child, name)
        else:
            yield from _cached_functions(child, prefix)


def test_every_cache_has_a_stated_reader():
    cached = {
        name for path in MODULES
        for name in _cached_functions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert sorted(cached) == sorted(CACHES)


def test_python_floor_has_the_str_digit_limit():
    # `series` and `cli` call sys.get_int_max_str_digits(), which Python
    # 3.10 gained in 3.10.7, so the one `>=` floor must admit no release
    # before it
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=([\d.]+)"$', text, re.MULTILINE)
    assert floor, "requires-python is not a single >= floor"
    assert tuple(map(int, floor.group(1).split("."))) >= (3, 10, 7)
