"""`tests/mutants.txt` against today's source, by AST alone (no mutant
runs here): each recorded `tests/mutate.py` run names a function or
`Class.method` that exists and test files that exist (the file part of a
node id, options such as `-k EXPR` skipped), it makes as many
mutants as recorded, and each SURVIVED line is one of its mutants, keyed
by the function and the line's offset from its `def`, as many as the runs
of that function record together: a mutant that survives two runs, as over
a whole file and over one of its tests, is listed twice.  Every function
and method of `src/zgap` has a recorded run, and each `module.function`
that the record's prose names, as its hand-mutant paragraphs do, exists."""

import ast
import re
import shlex
from collections import Counter, defaultdict

import mutate

RECORD = mutate.ROOT / "tests" / "mutants.txt"


def named_files(tests):
    """The files that the pytest arguments `tests` name: each path, and the
    part of each node id `path::test` before the first `::`."""
    words, files = iter(shlex.split(tests)), []
    for word in words:
        if word == "-k":  # its value, the next word, names no file
            next(words)
        elif not word.startswith("-"):
            files.append(word.partition("::")[0])
    return files


def test_named_files_skip_options_and_test_names():
    assert named_files('tests/a.py::test_b -k "c or d" tests/e.py') == ["tests/a.py", "tests/e.py"]


RUN = re.compile(r"#   python tests/mutate\.py (\w+) ([\w.]+) (.+)  # (\d+) mutants, (\d+) survived$")
LINES = RECORD.read_text(encoding="utf-8").splitlines()
RUNS = [match.groups() for match in map(RUN.match, LINES) if match]


def definitions():
    """(module, name) of each top-level function and of each method, as
    `Class.method`, of a top-level class in `src/zgap`; and of each such
    class."""
    functions, classes = set(), set()
    for path in (mutate.ROOT / "src" / "zgap").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            if owner:
                classes.add((path.stem, node.name))
            for child in node.body if owner else [node]:
                if isinstance(child, ast.FunctionDef):
                    functions.add((path.stem, owner + child.name))
    return functions, classes


FUNCTIONS, CLASSES = definitions()


def test_every_function_and_method_has_a_recorded_run():
    """Nested functions run with their owner."""
    recorded = {(module, function) for module, function, *_ in RUNS}
    assert sorted(FUNCTIONS - recorded) == []


MODULES = "|".join(sorted({module for module, _ in FUNCTIONS}))
NAMED = re.compile(rf"\b({MODULES})\.(?!py\b)(\w+(?:\.\w+)?)")


def test_the_record_names_only_code_that_exists():
    prose = [line for line in LINES if not RUN.match(line) and not line.startswith("SURVIVED  ")]
    named = {match.groups() for line in prose for match in NAMED.finditer(line)}
    assert named and sorted(named - FUNCTIONS - CLASSES) == []


def test_recorded_runs_match_the_source():
    assert len(RUNS) == sum(line.startswith("#   python") for line in LINES)
    unmatched = Counter(line[len("SURVIVED  "):] for line in LINES if line.startswith("SURVIVED  "))
    counts = defaultdict(list)  # (mutants, survivors) of each run, by function
    for module, function, tests, count, survived in RUNS:
        files = named_files(tests)
        assert files and all((mutate.ROOT / path).is_file() for path in files), tests
        counts[module, function].append((int(count), int(survived)))
    for (module, function), made_survived in counts.items():
        source = (mutate.ROOT / "src" / "zgap" / f"{module}.py").read_text(encoding="utf-8")
        made = Counter(f"{module}.{function}+{line}  {original}  ->  {mutated}"
                       for line, original, mutated, _ in mutate.mutants(source, function))
        listed = Counter({key: n for key, n in unmatched.items() if key in made})
        assert {count for count, _ in made_survived} == {sum(made.values())}, function
        assert all(n <= made[key] * len(made_survived) for key, n in listed.items()), function
        assert sum(listed.values()) == sum(survived for _, survived in made_survived), function
        unmatched -= listed
    assert not unmatched, f"SURVIVED lines of no recorded run: {sorted(unmatched)}"
