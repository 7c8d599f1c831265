"""The public surface: every public top-level name that a module of
`src/zgap/` defines has a caller in `src/zgap/` or `perfbench/`.

A use is a name, an attribute, an imported name, or a string constant equal
to the name (the benchmark tracer wraps functions by attribute name).  Uses
inside the name's own definition, docstrings, comments, the package's
`__init__.py` and `tests/` do not count: a helper that only tests call, or
that the package only re-exports, is dead weight.
"""

import ast
from pathlib import Path

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


def test_package_exports_only_its_version():
    tree = ast.parse((ROOT / "src" / "zgap" / "__init__.py").read_text(encoding="utf-8"))
    names = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in tree.body)
    assert names == ["__version__"]
