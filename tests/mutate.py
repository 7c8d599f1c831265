"""Mutation pass over one function of `src/zgap`, on demand and outside the
tier-1 suite (pytest does not collect this file).

    python tests/mutate.py MODULE FUNCTION TEST...

for example

    python tests/mutate.py bounds _root_of_decreasing tests/test_bounds.py
    python tests/mutate.py series SeriesMatrix.determinant tests/test_series.py -k toda

TEST... is everything after FUNCTION, handed to pytest as it stands: paths,
node ids and options such as `-k EXPR`.

Each mutant changes one thing in FUNCTION of `src/zgap/MODULE.py`, a
top-level function or a method written `Class.method`, nested functions
included:

* a comparison: < and <=, > and >=, == and != swap;
* an arithmetic operator, in an expression or an augmented assignment:
  + and - swap, * and / swap, // becomes *;
* an integer constant n becomes n + 1;
* a unary minus is dropped.

The tests run with pytest in a copy of `src/`, `tests/` and `perfbench/`
made in a fresh temporary directory (TMPDIR moves it), once unmutated,
which must pass, and once per mutant, every test to the end.  Every run
draws the same Hypothesis examples (`--hypothesis-seed` SEED, with no
example database carried from one run to the next), so a verdict depends
only on the code and the tests, and `tests/mutants.txt` changes only when
they do.  The copy's `tests/conftest.py` also turns off Hypothesis's
shrink phase: a failing draw still fails its test, at once, instead of
spending the run's time on shrinking it.  A mutant is killed when some
test fails it, when its run takes TIMEOUT times as long as the unmutated
run, or a minute if that is longer (some mutants loop), or when it
outgrows the MEMORY limit of a run (some grow a list without end).  One
that every test passes survives: either the tests miss it or it is
equivalent to the original.

One line per mutant goes to stdout, keyed by FUNCTION and the mutated
line's offset from its `def` line, so an edit elsewhere in the module
leaves the key as it is.  A killed line ends with the id of every test
that fails that mutant, as pytest's summary names it: together the lines
are a kill matrix, and a test that no line names alone kills no mutant of
FUNCTION that another test does not.  A timeout names no test, nor does a
run that pytest itself cannot finish (exit status 3, as when a mutant's
list fills the MEMORY limit and pytest has none left to report).  The exit
status is 0 when every mutant is killed and 1 when one survives; SIGTERM
or SIGINT stops the tool with status 128 + the signal's number, and the
copy is removed.
`tests/mutants.txt` keeps the SURVIVED lines of the recorded runs, each
with the reason it survives, and `tests/test_mutants.py` checks that record
against the source.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")
TIMEOUT = 10  # a mutant's run may take this many times the unmutated run
MEMORY = 1 << 30  # bytes of address space per test run
SEED = 0  # Hypothesis seed of every test run
NO_SHRINK = """
from hypothesis import Phase, settings

settings.register_profile("mutate", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("mutate")
"""  # appended to the copy's tests/conftest.py

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult,
}


def _mutations(node: ast.AST):
    """Each way to mutate `node` itself, as (field, the field's new value)."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                yield "ops", [*node.ops[:i], SWAPS[type(op)](), *node.ops[i + 1:]]
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
        yield "op", SWAPS[type(node.op)]()
    elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
          and not isinstance(node.value, bool)):
        yield "value", node.value + 1
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield "op", ast.UAdd()


def target_of(tree: ast.Module, function: str) -> tuple[ast.AST, ast.FunctionDef]:
    """(the top-level statement that holds `function`, its definition), for a
    top-level function or a `Class.method`."""
    owner, _, name = function.rpartition(".")
    top, body = None, tree.body
    if owner:
        top = next((n for n in body if isinstance(n, ast.ClassDef) and n.name == owner), None)
        body = top.body if top else []
    target = next((n for n in body if isinstance(n, ast.FunctionDef) and n.name == name), None)
    if target is None:
        raise SystemExit(f"mutate: no top-level function or method {function!r}")
    return top or target, target


def mutants(source: str, function: str):
    """(line, original, mutated, module source) for every mutant of
    `function` in the module `source`, its line counted from the `def`
    line, which is 0."""
    top, target = target_of(ast.parse(source), function)
    lines = source.splitlines(keepends=True)
    start = min([d.lineno for d in top.decorator_list] + [top.lineno]) - 1
    before, after = "".join(lines[:start]), "".join(lines[top.end_lineno:])
    for node in ast.walk(target):
        for field, value in _mutations(node):
            kept, original = getattr(node, field), ast.unparse(node)
            setattr(node, field, value)  # in place, and put back before the walk goes on
            mutated, text = ast.unparse(node), before + ast.unparse(top) + "\n" + after
            setattr(node, field, kept)
            yield node.lineno - target.lineno, original, mutated, text


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_tests(workdir: Path, tests: list[str],
              timeout: float | None) -> subprocess.CompletedProcess | None:
    """pytest's run in the copy, every test to the end, its summary naming
    each passed, failed and erroring test; None when it ran past `timeout`
    seconds."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rpfE", "-p", "no:cacheprovider",
               f"--hypothesis-seed={SEED}", *tests]
    try:
        return subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=timeout, check=False, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return None


def failing_ids(stdout: str, known: set[str]) -> list[str]:
    """The ids on the FAILED and ERROR lines of pytest's summary.  A line
    reads `FAILED <id> - <message>`; a parametrised id may hold spaces or
    " - ", so the id is the longest known one that the line starts with,
    and a collection error, whose id is a file, is the text before " - "."""
    out = []
    for line in stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome not in ("FAILED", "ERROR"):
            continue
        heads = [i for i in known if rest == i or rest.startswith(i + " - ")]
        out.append(max(heads, key=len) if heads else rest.split(" - ")[0])
    return out


def _stop(signum: int, frame) -> None:
    """SIGTERM and SIGINT end the tool as an exit does, so that the copy in
    TMPDIR is removed and the running pytest is killed."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module of src/zgap, without .py")
    parser.add_argument("function", help="top-level function, or Class.method, to mutate")
    parser.add_argument("tests", nargs=argparse.REMAINDER,
                        help="pytest arguments, relative to the repo root")
    args = parser.parse_args(argv)
    if not args.tests:
        parser.error("the following arguments are required: tests")

    source = (ROOT / "src" / "zgap" / f"{args.module}.py").read_text(encoding="utf-8")
    found = list(mutants(source, args.function))
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        for name in COPIED:
            shutil.copytree(ROOT / name, workdir / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        with open(workdir / "tests" / "conftest.py", "a", encoding="utf-8") as conftest:
            conftest.write(NO_SHRINK)
        module = workdir / "src" / "zgap" / f"{args.module}.py"
        start = time.perf_counter()
        clean = run_tests(workdir, args.tests, None)
        timeout = max(60.0, TIMEOUT * (time.perf_counter() - start))
        if clean.returncode != 0:
            print("mutate: the tests do not pass on the unmutated code", file=sys.stderr)
            return 2
        known = {line[len("PASSED "):] for line in clean.stdout.splitlines()
                 if line.startswith("PASSED ")}
        survivors = 0
        for line, original, mutated, text in found:
            module.write_text(text, encoding="utf-8")
            result = run_tests(workdir, args.tests, timeout)
            if result is not None and result.returncode == 5:
                print("mutate: pytest collected no tests", file=sys.stderr)
                return 2
            ids = [] if result is None else failing_ids(result.stdout, known)
            verdict = ("timeout" if result is None else "killed" if result.returncode
                       else "SURVIVED")
            survivors += verdict == "SURVIVED"
            killers = f"  by  {'  '.join(ids)}" if ids else ""
            print(f"{verdict:8}  {args.module}.{args.function}+{line}  {original}  ->  "
                  f"{mutated}{killers}", flush=True)
        print(f"{len(found)} mutants of {args.module}.{args.function}, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
