"""`tests/mutants.txt` against today's source, by AST alone (no mutant
runs here): each recorded `tests/mutate.py` run names a function or
`Class.method` that exists and test files that exist, it makes as many
mutants as recorded, and each SURVIVED line is one of its mutants, keyed
by the function and the line's offset from its `def`, as many as the run
records."""

import re
from collections import Counter

import mutate

RECORD = mutate.ROOT / "tests" / "mutants.txt"
RUN = re.compile(r"#   python tests/mutate\.py (\w+) ([\w.]+) (.+)  # (\d+) mutants, (\d+) survived$")


def test_recorded_runs_match_the_source():
    lines = RECORD.read_text(encoding="utf-8").splitlines()
    runs = [match.groups() for match in map(RUN.match, lines) if match]
    assert len(runs) == sum(line.startswith("#   python") for line in lines)
    unmatched = Counter(line[len("SURVIVED  "):] for line in lines if line.startswith("SURVIVED  "))
    for module, function, tests, count, survived in runs:
        assert all((mutate.ROOT / path).is_file() for path in tests.split()), tests
        source = (mutate.ROOT / "src" / "zgap" / f"{module}.py").read_text(encoding="utf-8")
        made = Counter(f"{module}.{function}+{line}  {original}  ->  {mutated}"
                       for line, original, mutated, _ in mutate.mutants(source, function))
        listed = unmatched & made
        assert (sum(made.values()), sum(listed.values())) == (int(count), int(survived)), function
        unmatched -= listed
    assert not unmatched, f"SURVIVED lines of no recorded run: {sorted(unmatched)}"
