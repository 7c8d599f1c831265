"""Mutation pass over one function of `src/zgap`, on demand and outside the
tier-1 suite (pytest does not collect this file).

    python tests/mutate.py MODULE FUNCTION TEST...

for example

    python tests/mutate.py bounds _root_of_decreasing tests/test_bounds.py

Each mutant changes one thing in the top-level function FUNCTION of
`src/zgap/MODULE.py`:

* a comparison: < and <=, > and >=, == and != swap;
* an arithmetic operator, in an expression or an augmented assignment:
  + and - swap, * and / swap, // becomes *;
* an integer constant n becomes n + 1;
* a unary minus is dropped.

The tests run with pytest in a copy of `src/`, `tests/` and `perfbench/`
made in a fresh temporary directory (TMPDIR moves it), once unmutated,
which must pass, and once per mutant.  Every run draws the same Hypothesis
examples (`--hypothesis-seed` SEED, with no example database carried from
one run to the next), so a verdict depends only on the code and the tests,
and `tests/mutants.txt` changes only when they do.  A mutant that some test fails, or
that runs past TIMEOUT (some mutants loop), is killed; one that every
test passes survives: either the tests miss it or it is equivalent to the
original.
One line per mutant goes to stdout, and the exit status is 0 when every
mutant is killed and 1 when one survives.  `tests/mutants.txt` keeps the
SURVIVED lines of the recorded runs, each with the reason it survives.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")
TIMEOUT = 600.0  # seconds per test run
SEED = 0  # Hypothesis seed of every test run

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult,
}


def _mutations(node: ast.AST):
    """Each way to mutate `node` itself, as a function that applies it in
    place to a copy of `node`."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                yield lambda n, i=i: n.ops.__setitem__(i, SWAPS[type(n.ops[i])]())
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
        yield lambda n: setattr(n, "op", SWAPS[type(n.op)]())
    elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
          and not isinstance(node.value, bool)):
        yield lambda n: setattr(n, "value", n.value + 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield lambda n: setattr(n, "op", ast.UAdd())


def mutants(source: str, function: str):
    """(line, original, mutated, module source) for every mutant of the
    top-level function `function` in the module `source`."""
    tree = ast.parse(source)
    target = next((node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == function), None)
    if target is None:
        raise SystemExit(f"mutate: no top-level function {function!r}")
    lines = source.splitlines(keepends=True)
    start = min([d.lineno for d in target.decorator_list] + [target.lineno]) - 1
    before, after = "".join(lines[:start]), "".join(lines[target.end_lineno:])
    for index, node in enumerate(ast.walk(target)):
        for mutate in _mutations(node):
            changed = copy.deepcopy(target)
            mutated = next(n for k, n in enumerate(ast.walk(changed)) if k == index)
            mutate(mutated)
            yield (node.lineno, ast.unparse(node), ast.unparse(mutated),
                   before + ast.unparse(changed) + "\n" + after)


def run_tests(workdir: Path, tests: list[str]) -> int | None:
    """pytest's exit status in the copy, or None when it timed out."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               f"--hypothesis-seed={SEED}", *tests]
    try:
        return subprocess.run(command, cwd=workdir, env=env, capture_output=True,
                              timeout=TIMEOUT, check=False).returncode
    except subprocess.TimeoutExpired:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module of src/zgap, without .py")
    parser.add_argument("function", help="top-level function to mutate")
    parser.add_argument("tests", nargs="+", help="pytest arguments, relative to the repo root")
    args = parser.parse_args(argv)

    source = (ROOT / "src" / "zgap" / f"{args.module}.py").read_text(encoding="utf-8")
    found = list(mutants(source, args.function))
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        for name in COPIED:
            shutil.copytree(ROOT / name, workdir / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        module = workdir / "src" / "zgap" / f"{args.module}.py"
        if run_tests(workdir, args.tests) != 0:
            print("mutate: the tests do not pass on the unmutated code", file=sys.stderr)
            return 2
        survivors = 0
        for line, original, mutated, text in found:
            module.write_text(text, encoding="utf-8")
            status = run_tests(workdir, args.tests)
            if status == 5:
                print("mutate: pytest collected no tests", file=sys.stderr)
                return 2
            verdict = "timeout" if status is None else "killed" if status else "SURVIVED"
            survivors += verdict == "SURVIVED"
            print(f"{verdict:8}  {args.module}.py:{line}  {original}  ->  {mutated}", flush=True)
        print(f"{len(found)} mutants of {args.module}.{args.function}, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
