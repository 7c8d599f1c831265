r"""CLI front end: reports, exit codes, determinism.

The golden corpus: `GOLDEN` maps each pinned command to its exit status,
and `tests/golden/` holds one file per command with its exact stdout bytes,
named by `golden_path`.  A deliberate change to a report is re-recorded
from the repo root, with `src` on PYTHONPATH, as

    COLUMNS=80 python -m zgap.cli ARGS > tests/golden/NAME

and a `moments ... --corrupt` key, run with the h = 2 reference entry
raised (ARGS without the word --corrupt), as

    python -c "import sys; from fractions import Fraction; from zgap import cli, moments; \
    c = moments.coefficient_column; moments.coefficient_column = lambda n: \
    {**(col := c(n)), 2: col[2] + Fraction(1, col[2].denominator)}; \
    raise SystemExit(cli.main(sys.argv[1:]))" ARGS > tests/golden/NAME

so that every moved digit shows as a file diff.
"""

import ast
import contextlib
import difflib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from zgap import bounds, cli, moments, series
from zgap.cli import _plain, build_parser, main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (the benchmark's command lines)


def run_cli(args, capsys):
    status = main(args)
    out = capsys.readouterr().out
    return status, out


def raise_reference_h2(monkeypatch):
    """Make every reference column the library reads carry the numerator of
    its h = 2 entry raised by one, the entry `bounds --corrupt` raises."""
    column = moments.coefficient_column

    def raised(n):
        out = column(n)
        out[2] = Fraction(out[2].numerator + 1, out[2].denominator)
        return out

    monkeypatch.setattr(moments, "coefficient_column", raised)


def test_identity_command_mismatch_exits_1(capsys, monkeypatch):
    det = series.hankel_determinant(2, 6)
    corrupted = series.HalfPowerSeries(
        det.offset, det.coeffs[:3] + (det.coeffs[3] + 1,) + det.coeffs[4:]
    )
    monkeypatch.setattr(series, "hankel_determinant", lambda l, terms: corrupted)
    status, out = run_cli(["identity", "--l", "2", "--terms", "6"], capsys)
    assert status == 1
    payload = json.loads(out)
    assert payload["matched"] is False
    assert payload["terms_compared"] == 3
    # the sign for l = 2 is -1; x**5 is coefficient 3 after the offset 2
    assert payload["mismatch_exponent"] == "5/1"
    assert Fraction(payload["lhs_coefficient"]) == -det.coeffs[3]
    assert Fraction(payload["rhs_coefficient"]) == -(det.coeffs[3] + 1)


def test_invalid_usage_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["unknown-command"])
    status, _ = run_cli(["moments", "--pair", "4,3"], capsys)
    assert status == 2


@pytest.mark.parametrize(
    "args, tol, message",
    [(["hankel", "--l", "abc"], None, "argument --l: invalid int value: 'abc'"),
     (["bounds", "--n", "3"], None, "argument --n: invalid choice: 3"),
     (["lis", "--bogus"], None, "unrecognized arguments: --bogus"),
     ([], None, "the following arguments are required: command"),
     (["bounds"], "abc", "argument --tol: invalid float value: 'abc'"),
     (["moments", "--pair", "2"], None,
      "argument --pair: expected two comma-separated integers, got '2'"),
     (["moments", "--pair", "a,b"], None,
      "argument --pair: expected two comma-separated integers, got 'a,b'"),
     (["moments", "--l", "3", "--pair", "3,2"], None,
      "the (3, 2) pair is tabulated for l = 4 only"),
     (["moments", "--l", "4", "--pair", "4,3"], None, "unsupported derivative pair (4, 3)"),
     (["arithfactor", "--l", "21"], None,
      "the error bound for l=21 at prime_cutoff=100000 is not below the value"),
     (["arithfactor", "--l", "30"], None,
      "the error bound for l=30 at prime_cutoff=100000 is not below the value"),
     (["arithfactor", "--cutoff", "100000001"], None,
      "prime_cutoff must be in [2, 10**8], got 100000001"),
     (["arithfactor", "--l", "17"], None,
      "the error bound for l=17 at prime_cutoff=100000 is not below the value"),
     (["hankel", "--l", "1", "--terms", "2", "--output", ""], None,
      "cannot write '': the --output path is empty"),
     (["arithfactor", "--l", "21", "--cutoff", "300000"], None,
      "the Euler product for l=21 underflows a float at p=139"),
     # the top cutoff is in range, and 92**4 >= 10**8 * ln 2
     (["arithfactor", "--l", "92", "--cutoff", "100000000"], None,
      "the error bound for l=92 at prime_cutoff=100000000 is not below the value"),
     (["moments", "--l", "4", "--corrupt"], None, "unrecognized arguments: --corrupt")],
)
def test_rejected_input_is_a_one_line_error(args, tol, message, capsys):
    if tol is not None:
        args = [*args, "--tol", tol]
    try:
        status = main(args)
    except SystemExit as exc:
        status = exc.code
    assert status == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"zgap: {message}")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--tol", "-1"],
     ["--tol", "1e-300"], ["--output", "{missing}/x.json"], ["--tol", "1e-18"],
     ["--tol", "1e-20"]],
)
def test_bad_bounds_input_is_a_one_line_error(args, tmp_path):
    args = [a.format(missing=tmp_path / "missing") for a in args]
    result = subprocess.run(
        [sys.executable, "-m", "zgap.cli", "bounds", "--n", "1", *args],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("zgap: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "args",
    [["moments", "--l", "-2"], ["lis", "--max-n", "-1"], ["hankel", "--terms", "0"],
     ["hankel", "--terms", "-3"], ["hankel", "--l", "0"]],
)
def test_negative_range_is_a_one_line_error(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = args[-2].lstrip("-").replace("-", "_")
    assert captured.err.startswith(f"zgap: {name} must be >= ")
    assert len(captured.err.splitlines()) == 1


_SMALL_L = st.integers(-2, 6)
_FLAGS = {
    "hankel": {"--l": _SMALL_L, "--terms": st.integers(-3, 12)},
    "identity": {"--l": _SMALL_L, "--terms": st.integers(-3, 12)},
    "lis": {"--l": _SMALL_L, "--max-n": st.integers(-3, 14)},
    "moments": {"--l": _SMALL_L},
    "arithfactor": {"--l": st.integers(-2, 40), "--cutoff": st.integers(-3, 10**4)},
}


@st.composite
def small_argv(draw):
    """A hankel, identity, lis, moments or arithfactor command line in any
    format, each range flag either left at its default or set to a small
    value, zero and negative values included."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, "--format", draw(st.sampled_from(["json", "csv", "text"]))]
    for flag, values in _FLAGS[command].items():
        value = draw(st.none() | values)
        if value is not None:
            argv += [flag, str(value)]
    return argv


def report_fields(fmt, text):
    """The field -> value rows of a two-column report in any format."""
    if fmt == "json":
        return json.loads(text)
    separator = "," if fmt == "csv" else "  "
    return dict(line.split(separator, 1) for line in text.splitlines()[1:])


@settings(max_examples=75, deadline=None)
@given(small_argv())
def test_fuzzed_argv_gives_a_report_or_a_one_line_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2)
    if status == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("zgap: ")
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert out.getvalue() and err.getvalue() == ""
    if argv[0] == "arithfactor" and status == 0:
        fields = report_fields(argv[2], out.getvalue())
        value, error_bound = float(fields["value"]), float(fields["error_bound"])
        assert math.isfinite(value) and value > 0
        assert math.isfinite(error_bound) and error_bound < value


@pytest.mark.parametrize("l", ["17", "1000000"])
def test_arithfactor_error_bound_is_rejected_before_the_sieve(l, monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("sieve run for an l whose error bound is rejected")

    monkeypatch.setattr(moments, "_primes_up_to", refuse)
    assert main(["arithfactor", "--l", l]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"zgap: the error bound for l={l} ")
    assert len(captured.err.splitlines()) == 1


def test_bad_tolerance_is_rejected_before_any_partition_sum(monkeypatch, capsys):
    def refuse(pair, l):
        raise AssertionError("partition sum computed for a rejected tolerance")

    monkeypatch.setattr(moments, "_column", refuse)
    assert main(["bounds", "--tol", "0"]) == 2
    assert capsys.readouterr().err == "zgap: quad_tol must be finite and positive, got 0.0\n"


@pytest.mark.parametrize(
    "output, reason",
    [pytest.param(output, reason, id=output) for output, reason in
     (("{tmp}/missing/x.json", os.strerror(errno.ENOENT)), ("{tmp}", "it is a directory"))],
)
def test_unwritable_output_is_rejected_before_any_partition_sum(
    output, reason, tmp_path, monkeypatch, capsys
):
    def refuse(pair, l):
        raise AssertionError("partition sum computed for an unwritable --output")

    monkeypatch.setattr(moments, "_column", refuse)
    path = output.format(tmp=tmp_path)
    assert main(["bounds", "--output", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"zgap: cannot write {path}: {reason}\n")


def test_an_existing_output_without_write_permission_is_refused(tmp_path, monkeypatch, capsys):
    # root may write any file, so the missing permission is os.access's answer
    path = tmp_path / "report.json"
    path.write_text("keep\n")
    monkeypatch.setattr(os, "access", lambda _, mode: mode != os.W_OK)
    assert main(["arithfactor", "--cutoff", "100", "--output", str(path)]) == 2
    assert capsys.readouterr().err == f"zgap: cannot write {path}: permission denied\n"
    assert path.read_text() == "keep\n"


def refuse_scratch_files(monkeypatch):
    """Make every `tempfile.TemporaryFile` call fail as in a directory that
    refuses new files."""
    def refuse(*args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)


@pytest.mark.parametrize("device", [False, True])
def test_an_existing_output_is_written_without_a_scratch_file(device, tmp_path, monkeypatch):
    # a file that exists, a regular one or a device, is written in place, so
    # a directory that refuses new files does not matter
    path = os.devnull if device else str(tmp_path / "report.json")
    if not device:
        (tmp_path / "report.json").write_text("old\n")
    refuse_scratch_files(monkeypatch)
    assert main(["arithfactor", "--cutoff", "100", "--output", path]) == 0
    if not device:
        assert json.loads((tmp_path / "report.json").read_text())["prime_cutoff"] == 100


def test_a_new_output_is_probed_in_its_own_directory(tmp_path, monkeypatch, capsys):
    # a relative path's directory is the working directory, not the
    # default scratch directory
    probed = []
    make = tempfile.TemporaryFile

    def recording(*args, dir=None, **kwargs):
        probed.append(dir)
        return make(*args, dir=dir, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    monkeypatch.chdir(tmp_path)
    assert main(["arithfactor", "--cutoff", "100", "--output", "report.json"]) == 0
    assert probed == [os.getcwd()]
    refuse_scratch_files(monkeypatch)
    assert main(["arithfactor", "--cutoff", "100", "--output", "other.json"]) == 2
    assert capsys.readouterr().err == (
        f"zgap: cannot write other.json: {os.strerror(errno.EACCES)}\n"
    )
    assert not (tmp_path / "other.json").exists()


def test_failed_run_leaves_existing_output_untouched(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("keep\n")
    assert main(["bounds", "--tol", "0", "--output", str(path)]) == 2
    assert path.read_text() == "keep\n"


def test_quadrature_failure_is_a_one_line_error(monkeypatch, capsys):
    # the cli imports `bounds` inside its report function; patched by name,
    # the failure rises from the real certificate's first quadrature
    def diverge(*args, **kwargs):
        raise bounds.QuadratureError("no convergence within 4096 panels", 1e-3)

    monkeypatch.setattr("zgap.bounds.integrate_unit_interval", diverge)
    assert main(["bounds", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("zgap: no convergence within 4096 panels")
    assert len(captured.err.splitlines()) == 1


def test_out_of_memory_is_a_one_line_error(monkeypatch, capsys):
    def exhaust(l, terms):
        raise MemoryError

    monkeypatch.setattr(series, "toeplitz_determinant", exhaust)
    assert main(["lis", "--l", "20", "--max-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "zgap: out of memory computing the lis report\n"


class Reached(Exception):
    """Raised in place of the work of a report that was not refused."""


@pytest.fixture
def no_work(monkeypatch):
    """The `lis` and `hankel` reports raise Reached where their work starts."""
    def reached(*args):
        raise Reached

    for name in ("count_by_tableaux", "count_by_series", "count_by_enumeration"):
        monkeypatch.setattr(f"zgap.lis.{name}", reached)
    monkeypatch.setattr(series, "hankel_determinant", reached)


@pytest.fixture
def digit_limit():
    """Set sys.set_int_max_str_digits for one test, restored after it."""
    default = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(default)


def unprintable(command, option, digits=4300):
    return (f"zgap: the {command} report holds an integer of more than {digits} digits, "
            f"which Python will not print; lower {option}\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_an_integer_too_long_to_print_is_a_one_line_error(fmt, digit_limit, capsys):
    # at l = 2 a denominator passes 640 digits before x**200; str() refuses
    # it while the report is written, and the message names the option to lower
    digit_limit(640)
    assert main(["hankel", "--l", "2", "--terms", "200", "--format", fmt]) == 2
    assert capsys.readouterr() == ("", unprintable("hankel", "--terms", 640))


@pytest.mark.parametrize("argv, option", [(["lis", "--l", "2000", "--max-n", "1600"], "--max-n"),
                                          (["hankel", "--l", "1", "--terms", "1000"], "--terms")])
def test_an_unprintable_size_is_refused_before_the_work(argv, option, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", unprintable(argv[0], option))


# (digit limit, lis edge m, hankel edge t): the least m with m! >= 10**limit,
# since T_l(n) = n! for n <= l, and the least t with (t-1)! t! >= 10**limit,
# the last denominator of the l = 1 series.  At 652 the products below the
# edges are within a factor of 2 of the bound, and at 697 the ones at the
# edges are, so a product off by a factor of 2 moves an edge.
@pytest.mark.parametrize("limit, m, t", [(652, 316, 180), (697, 333, 189)])
def test_the_refused_sizes_are_exactly_the_unprintable_ones(limit, m, t, no_work, digit_limit,
                                                           capsys):
    assert math.factorial(m - 1) < 10**limit <= math.factorial(m)
    assert math.factorial(t - 2) * math.factorial(t - 1) < 10**limit
    assert math.factorial(t - 1) * math.factorial(t) >= 10**limit
    cases = [(["lis", "--l", "2000", "--max-n", str(k)], k == m) for k in (m - 1, m)]
    cases += [(["lis", "--l", str(k), "--max-n", "2000"], k == m) for k in (m - 1, m)]
    cases += [(["hankel", "--l", "1", "--terms", str(k)], k == t) for k in (t - 1, t)]
    digit_limit(limit)
    for argv, refused in cases:
        if refused:
            assert main(argv) == 2, argv
        else:
            with pytest.raises(Reached):
                main(argv)
        option = "--max-n" if argv[0] == "lis" else "--terms"
        assert capsys.readouterr().err == (unprintable(argv[0], option, limit)
                                           if refused else ""), argv


@pytest.mark.parametrize("argv", [["lis", "--l", "2000", "--max-n", "1600"],
                                  ["hankel", "--l", "1", "--terms", "1000"]])
def test_no_size_is_refused_without_a_digit_limit(argv, no_work, digit_limit):
    digit_limit(0)
    with pytest.raises(Reached):
        main(argv)


HANKEL_REFUSAL = ("zgap: the Hankel series for l={} cannot be printed: its first "
                  "coefficient's denominator has more than 4300 digits\n")


@pytest.mark.parametrize("argv", [["hankel", "--l", "600", "--terms", "1"],
                                  ["identity", "--l", "600"]])
def test_unprintable_hankel_series_is_a_fast_one_line_error(argv, capsys):
    # refused before the chain, and before the identity's character sum
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == HANKEL_REFUSAL.format(600)


def test_hankel_l50_prints_and_l51_is_refused(capsys):
    # the first coefficient is -1/d, d = prod_{i<50} (50+i)!/i! of 4125 digits
    assert main(["hankel", "--l", "50", "--terms", "1"]) == 0
    d = math.prod(math.perm(50 + i, 50) for i in range(50))
    assert json.loads(capsys.readouterr().out)["coefficients"] == [f"-1/{d}"]
    assert main(["hankel", "--l", "51", "--terms", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", HANKEL_REFUSAL.format(51))


def test_identity_accepts_l_up_to_50_as_the_help_text_says(capsys):
    assert "`identity` accepts l in 1..50." in " ".join(cli.__doc__.split())
    assert main(["identity", "--l", "51", "--terms", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", HANKEL_REFUSAL.format(51))


def test_lis_report_builds_one_toeplitz_determinant(monkeypatch, capsys):
    calls = []
    build = series.toeplitz_determinant

    def counting(l, terms):
        calls.append((l, terms))
        return build(l, terms)

    monkeypatch.setattr(series, "toeplitz_determinant", counting)
    assert main(["lis", "--l", "4", "--max-n", "14"]) == 0
    assert json.loads(capsys.readouterr().out)["all_agree"] is True
    assert calls == [(4, 15)]


# Modules that no command needs at import: the zgap modules load with the
# commands that run them, `json` and `csv` with the formats that write
# them, `argparse` (and the `gettext` and `locale` it loads) with --help or
# a usage error, no zgap module builds its records with `dataclasses`, and
# nothing in zgap uses `numpy`.
NOT_AT_IMPORT = ["argparse", "csv", "dataclasses", "gettext", "inspect", "json", "locale",
                 "numpy", "zgap.bounds", "zgap.lis", "zgap.moments", "zgap.series"]
ARGPARSE = ["argparse", "gettext", "locale"]
BENCHMARK = [op for ops in run.CLI_WORKLOADS.values() for op in ops]  # (label, command line)
TOLERANCES = ["nan", "inf", "0", "-1"]

# Each probe's command lines run in one fresh interpreter, which then
# names the modules of the row's list that they loaded; none may be.
# Each row: the command lines, their exit statuses, the modules, and the
# stderr they write together where it is pinned.
PROBES = {
    "import": ([], [], NOT_AT_IMPORT, None),
    # the benchmark's command lines; only --help loads argparse
    "benchmark": ([command for _, command in BENCHMARK],
                  [2 if label == "reject" else 0 for label, _ in BENCHMARK], ARGPARSE, None),
    "exact-series": (["hankel --l 2", "identity --l 2", "lis --l 2 --max-n 3"], [0, 0, 0],
                     ["zgap.bounds", "zgap.moments"], None),
    "rejected-hankel": (["hankel --l 0"], [2], ["zgap.bounds"], "zgap: l must be >= 1, got 0\n"),
    "rejected-lis": (["lis --max-n -1"], [2], ["zgap.bounds"],
                     "zgap: max_n must be >= 0, got -1\n"),
    # a bad --tol is refused before the library loads
    "rejected-tolerance": ([f"bounds --tol {tol}" for tol in TOLERANCES], [2] * 4,
                           ["zgap.bounds", "zgap.moments", "zgap.series"],
                           "".join(f"zgap: quad_tol must be finite and positive, got {float(tol)}\n"
                                   for tol in TOLERANCES)),
    "certify": (["bounds --n 1", "bounds --n 2", "moments --l 4", "arithfactor --l 2"],
                [0] * 4, ["zgap.lis", "zgap.series"], None),
}


def probe(commands, modules):
    """(the exit status of each command line, the `modules` loaded after
    them, their stderr, whether `--help` then loads argparse), from one
    fresh interpreter; the last shows that the probe sees a load."""
    code = (
        "import contextlib, io, sys\n"
        "from zgap.cli import main\n"
        "def status(command):\n"
        "    try:\n"
        "        return main(command.split())\n"
        "    except SystemExit as exit:\n"
        "        return exit.code\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        f"    statuses = [status(command) for command in {commands!r}]\n"
        f"    loaded = sorted(m for m in {modules!r} if m in sys.modules)\n"
        "    stderr = err.getvalue()\n"
        "    status('--help')\n"
        "print((statuses, loaded, stderr, 'argparse' in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=False)
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout)


@pytest.mark.parametrize("commands, statuses, modules, stderr", PROBES.values(), ids=PROBES)
def test_commands_load_only_the_modules_they_run(commands, statuses, modules, stderr):
    ran, loaded, err, help_loads_argparse = probe(commands, modules)
    assert (ran, loaded, help_loads_argparse) == (statuses, [], True)
    if stderr is not None:
        assert err == stderr


# every command's defaults, as the parser fills them in
PARSER_DEFAULTS = {
    "bounds": {"n": 1, "tol": 1e-8, "corrupt": False},
    "moments": {"l": 4, "pair": (2, 1)},
    "lis": {"l": 3, "max_n": 9},
    "hankel": {"l": 4, "terms": 12},
    "identity": {"l": 3, "terms": 8},
    "arithfactor": {"l": 2, "cutoff": 100_000},
}


def test_parse_config_defaults_and_flag():
    for command, defaults in PARSER_DEFAULTS.items():
        args = vars(build_parser().parse_args([command]))
        assert {key: args[key] for key in defaults} == defaults
        assert (args["format"], args["output"]) == ("json", None)
    args = build_parser().parse_args(["bounds", "--n", "2", "--tol", "1e-9"])
    assert args.tol == 1e-9


_NAMES = sorted({name for *_, options in cli._COMMANDS.values() for name in options}
                | set(cli._OUTPUT))
# values that an option accepts (an int option's when unlisted) and ones that
# some option refuses
_GOOD = {"--n": ["1", "2"], "--tol": ["1e-9", "0.5", "0"], "--pair": ["2,1", "3,2"],
         "--format": ["json", "csv", "text"], "--output": ["report.json"]}
_BAD = st.sampled_from(["-1", "-2", "-h", "", "abc", "inf", "4,3", "a,b", "xml", "3"])


@st.composite
def grammar_argv(draw):
    """A command line from the grammar's words: a command, `-h` or an unknown
    word, then some of the command's options, each given in full with a
    value.  Half of them stop there, with values the options accept; in
    the other half a value may be out of choices, negative, `-h`, empty or
    not a number, and one stray word may come in: an option alone, a prefix of
    one, its `--name=value` form, `-h` or a bare value."""
    head = draw(st.sampled_from([*cli._COMMANDS, "-h", "bogus"]))
    own = [*cli._COMMANDS[head][2], *cli._OUTPUT] if head in cli._COMMANDS else _NAMES
    clean = draw(st.booleans())
    argv = [head]
    for option in draw(st.lists(st.sampled_from(own), max_size=3)):
        good = st.sampled_from(_GOOD.get(option, ["0", "1", "4", "12"]))
        value = good if clean else good | _BAD
        argv += [option] if option == "--corrupt" else [option, draw(value)]
    if not clean:
        name = st.sampled_from(_NAMES)
        stray = draw(st.none() | st.one_of(
            name,
            st.tuples(name, st.integers(2, 5)).map(lambda t: t[0][:t[1]]),
            st.tuples(name, _BAD).map("=".join),
            st.sampled_from(["-h", "--help"]),
            _BAD,
        ))
        if stray is not None:
            argv.insert(draw(st.integers(1, len(argv))), stray)
    return argv


@settings(max_examples=400, deadline=None)
@given(grammar_argv())
@example(["bounds", "--output"])  # a missing value is not an empty one
def test_a_command_line_the_fast_path_reads_parses_the_same_by_argparse(argv):
    args = cli._parse(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_plain_writes_every_value_in_one_format():
    row = bounds.CheckResult("lambda_consistency", False, math.inf)
    value = {"x": Fraction(-3, 4), "d": Fraction(3), "rows": (row,), "n": 2, "ok": True}
    plain = _plain(value)
    assert plain == {"x": "-3/4", "d": "3/1", "rows": [["lambda_consistency", False, "inf"]],
                     "n": 2, "ok": True}
    assert plain["ok"] is True and plain["rows"][0][1] is False
    assert type(plain["n"]) is int


def test_cross_process_determinism(tmp_path):
    # a fresh interpreter writes, through --output, the bytes pinned below,
    # and prints nothing
    path = tmp_path / "x.json"
    result = subprocess.run(
        [sys.executable, "-m", "zgap.cli", "hankel", "--l", "3", "--output", str(path)],
        capture_output=True, check=True,
    )
    assert result.stdout == b""
    assert path.read_bytes() == golden_path("hankel --l 3 --format json").read_bytes()


GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_path(command):
    """The file that holds `command`'s stdout: its words, leading dashes
    dropped, joined by "_" (`bounds --n 1 --format json` is
    bounds_n_1_format_json)."""
    return GOLDEN_DIR / "_".join(word.lstrip("-") for word in command.split())


# The exit status of every pinned command; its exact stdout is the file
# `golden_path(command)`.  These are the exact-arithmetic reports in every
# format, the float reports of `bounds` and `arithfactor`, and the help
# texts.  The CLI contract is byte-identical output, so any change to these
# bytes must be deliberate.
GOLDEN = {
    # the --help text of `zgap` and of each command, as Python 3.11's argparse
    # prints it at 80 columns.  The defaults shown there come from
    # `zgap.arith`, and the top-level text is the `zgap.cli` docstring.
    "--help": 0,
    "bounds --help": 0,
    "moments --help": 0,
    "lis --help": 0,
    "hankel --help": 0,
    "identity --help": 0,
    "arithfactor --help": 0,
    "bounds --n 1 --format json": 0,
    "bounds --n 1 --format csv": 0,
    "bounds --n 1 --format text": 0,
    "bounds --n 1 --corrupt --format json": 1,
    "bounds --n 1 --corrupt --format text": 1,
    # the raised h = 2 entry is the one mismatch, and no other row fails
    "bounds --n 2 --corrupt": 1,
    # below PANEL_TOL, so the quadrature threshold is quad_tol itself
    "bounds --n 1 --tol 1e-13 --format json": 0,
    # an invalid certificate: the loose X bisection fails x_consistency
    "bounds --n 1 --tol 1 --format json": 1,
    "bounds --n 2 --format json": 0,
    "bounds --n 2 --format csv": 0,
    "bounds --n 2 --format text": 0,
    # below l = 4 no reference column, so the partition sums alone
    "moments --l 1": 0,
    "moments --l 2 --format json": 0,
    "moments --l 2 --format csv": 0,
    "moments --l 2 --format text": 0,
    "moments --l 4 --format json": 0,
    "moments --l 4 --format csv": 0,
    "moments --l 4 --format text": 0,
    "moments --l 6 --format json": 0,
    # the (3, 2) pair has a reference column at l = 4 only, and is computed there
    "moments --l 4 --pair 3,2 --format json": 0,
    "moments --l 4 --pair 3,2 --format csv": 0,
    "moments --l 4 --pair 3,2 --format text": 0,
    # `moments` has no --corrupt flag: in these keys the word marks a report
    # run with the h = 2 reference entry raised
    "moments --l 4 --corrupt --format json": 1,
    "moments --l 4 --corrupt --format csv": 1,
    "moments --l 4 --corrupt --format text": 1,
    "moments --l 4 --pair 3,2 --corrupt": 1,
    "lis --l 3 --format json": 0,
    "lis --l 3 --format csv": 0,
    "lis --l 3 --format text": 0,
    # the Catalan column
    "lis --l 2 --max-n 6 --format csv": 0,
    "lis --l 4 --max-n 14 --format json": 0,
    "lis --l 4 --max-n 14 --format csv": 0,
    "lis --l 4 --max-n 14 --format text": 0,
    "lis --l 10 --max-n 6 --format json": 0,
    "lis --l 10 --max-n 6 --format csv": 0,
    "lis --l 10 --max-n 6 --format text": 0,
    # one-part shapes only
    "lis --l 1 --max-n 12 --format csv": 0,
    # the series route reads a 2 x 2 determinant in place of the 20 x 20 one
    "lis --l 20 --max-n 2 --format json": 0,
    # integral exponents, which a CSV cell writes as "2/1", not "2"
    "hankel --l 2 --terms 4 --format csv": 0,
    "hankel --l 3 --format json": 0,
    "hankel --l 3 --format csv": 0,
    "hankel --l 3 --format text": 0,
    "hankel --l 4 --terms 12": 0,
    # the determinants benchmark's hankel command
    "hankel --l 6 --terms 12 --format json": 0,
    "hankel --l 8 --terms 12 --format json": 0,
    "identity --l 3 --format json": 0,
    "identity --l 3 --format csv": 0,
    "identity --l 3 --format text": 0,
    # the determinants benchmark's identity command
    "identity --l 4 --terms 12 --format json": 0,
    # long one-column shapes, (1,) * k + mu
    "identity --l 1 --terms 200 --format json": 0,
    "arithfactor --l 2 --format json": 0,
    "arithfactor --l 2 --format csv": 0,
    "arithfactor --l 2 --format text": 0,
    "arithfactor --l 2 --cutoff 1000": 0,
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_exact_report_is_byte_identical(command, capsys, monkeypatch):
    argv = command.split()
    if argv[0] == "moments" and "--corrupt" in argv:
        argv.remove("--corrupt")
        raise_reference_h2(monkeypatch)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = main(argv)
    except SystemExit as exc:  # --help
        status = exc.code
    out = capsys.readouterr().out
    path = golden_path(command)
    expected = path.read_bytes().decode("utf-8")  # read_text would translate newlines
    diff = difflib.unified_diff(expected.splitlines(keepends=True), out.splitlines(keepends=True),
                                f"tests/golden/{path.name}", "stdout")
    assert out == expected, "".join(diff)
    assert status == GOLDEN[command]


def test_every_golden_command_line_but_help_takes_the_fast_path():
    for command in GOLDEN:
        argv = command.split()
        if "--help" in argv:
            assert cli._parse(argv) is None
            continue
        if argv[0] == "moments" and "--corrupt" in argv:
            argv.remove("--corrupt")
        args = cli._parse(argv)
        assert args is not None, command
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_golden_files_are_the_keys():
    assert {p.name for p in GOLDEN_DIR.iterdir()} == {golden_path(c).name for c in GOLDEN}
