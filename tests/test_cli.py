"""CLI front end: reports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zgap import bounds, moments, series
from zgap.cli import _plain, build_parser, main


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


def test_bounds_command_json(capsys):
    status, out = run_cli(["bounds", "--n", "1", "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert float(payload["bound"]) > 1.98
    assert {c["name"] for c in payload["checks"]} >= {"lambda_consistency", "pi_integral"}


def test_bounds_command_corrupted_fails(capsys):
    status, out = run_cli(["bounds", "--n", "1", "--corrupt"], capsys)
    assert status == 1
    payload = json.loads(out)
    assert payload["valid"] is False


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP.md item 5: data_integrity checks the (3,2) column only at its h = 0 "
    "anchor, and --corrupt raises its h = 2 entry",
)
def test_bounds_command_corrupted_fails_n2(capsys):
    status, out = run_cli(["bounds", "--n", "2", "--corrupt"], capsys)
    assert status == 1
    assert json.loads(out)["valid"] is False


def test_moments_command(capsys):
    status, out = run_cli(["moments", "--l", "4", "--pair", "2,1"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert all(r["match"] for r in payload["records"])


def test_moments_command_corrupted_table(capsys, monkeypatch):
    raise_reference_h2(monkeypatch)
    status, out = run_cli(["moments", "--l", "4", "--pair", "2,1"], capsys)
    assert status == 1
    payload = json.loads(out)
    assert payload["all_match"] is False


def test_moments_low_l_has_no_reference(capsys):
    status, out = run_cli(["moments", "--l", "2", "--pair", "2,1"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert all("reference" not in r for r in payload["records"])
    assert all("partition_sum" in r for r in payload["records"])


def test_moments_reference_only_pair(capsys):
    status, out = run_cli(["moments", "--l", "4", "--pair", "3,2"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 5
    assert all("reference" in r for r in payload["records"])
    assert all("partition_sum" not in r for r in payload["records"])


def test_lis_command_catalan_column(capsys):
    status, out = run_cli(
        ["lis", "--l", "2", "--max-n", "6", "--format", "csv"], capsys
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,n,count,enumeration,series,agree"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert counts == [1, 1, 2, 5, 14, 42, 132]
    assert all(line.endswith("True") for line in lines[1:])


def test_hankel_command(capsys):
    status, out = run_cli(["hankel", "--l", "4", "--terms", "12"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["offset"] == "8/1"
    assert payload["coefficients"][0] == "1/870912000"
    assert len(payload["coefficients"]) == 12


def test_identity_command(capsys):
    status, out = run_cli(["identity", "--l", "3"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["matched"] is True
    assert payload["sign"] == -1


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


def test_arithfactor_command(capsys):
    status, out = run_cli(["arithfactor", "--l", "2", "--cutoff", "1000"], capsys)
    assert status == 0
    payload = json.loads(out)
    value = float(payload["value"])
    assert 0 < value < 1
    assert float(payload["error_bound"]) > 0


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
     ["--tol", "1e-300"], ["--output", "{missing}/x.json"]],
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


def test_help_shows_the_default_cutoff(capsys):
    with pytest.raises(SystemExit):
        main(["arithfactor", "--help"])
    assert f"(default: {moments.DEFAULT_PRIME_CUTOFF})" in capsys.readouterr().out


def test_bad_tolerance_is_rejected_before_any_partition_sum(monkeypatch, capsys):
    def refuse(h, l):
        raise AssertionError("partition sum computed for a rejected tolerance")

    monkeypatch.setattr(moments, "joint_moment_coefficient", refuse)
    assert main(["bounds", "--tol", "0"]) == 2
    assert capsys.readouterr().err.startswith("zgap: ")


@pytest.mark.parametrize("output", ["{tmp}/missing/x.json", "{tmp}"])
def test_unwritable_output_is_rejected_before_any_partition_sum(
    output, tmp_path, monkeypatch, capsys
):
    def refuse(h, l):
        raise AssertionError("partition sum computed for an unwritable --output")

    monkeypatch.setattr(moments, "joint_moment_coefficient", refuse)
    assert main(["bounds", "--output", output.format(tmp=tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("zgap: cannot write ")
    assert len(captured.err.splitlines()) == 1


def test_failed_run_leaves_existing_output_untouched(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("keep\n")
    assert main(["bounds", "--tol", "0", "--output", str(path)]) == 2
    assert path.read_text() == "keep\n"


def test_loose_tolerance_is_not_a_valid_certificate(capsys):
    status, out = run_cli(["bounds", "--n", "1", "--tol", "1"], capsys)
    assert status == 1
    assert json.loads(out)["valid"] is False


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


def test_recursion_limit_is_a_one_line_error(capsys):
    # the Laplace memo recurses once per row, so l = 600 passes the
    # interpreter's recursion limit before it multiplies anything
    assert main(["hankel", "--l", "600", "--terms", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "zgap: recursion limit reached computing the hankel report\n"


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


def run_probe(code):
    """Run `code` in a fresh interpreter; it prints what it finds."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False
    )


# Modules that no command needs at import: `bounds` and `moments` load with
# the commands that run them, `json` and `csv` with the formats that write
# them, no zgap module builds its records with `dataclasses`, and nothing in
# zgap uses `numpy`.
NOT_AT_IMPORT = ["csv", "dataclasses", "inspect", "json", "numpy", "zgap.bounds", "zgap.moments"]


def test_import_loads_only_what_every_command_needs():
    probe = (
        "import sys; before = set(sys.modules); import zgap.cli; "
        f"print(sorted(set(sys.modules) - before & set({NOT_AT_IMPORT!r})))"
    )
    result = run_probe(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_exact_series_commands_never_load_bounds_or_moments():
    probe = (
        "import contextlib, io, sys\n"
        "from zgap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = [main(['hankel', '--l', '2']), main(['identity', '--l', '2']),\n"
        "              main(['lis', '--l', '2', '--max-n', '3'])]\n"
        "print(status, sorted(m for m in ('zgap.bounds', 'zgap.moments') if m in sys.modules))\n"
    )
    result = run_probe(probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0] []\n"


@pytest.mark.parametrize("args", [["hankel", "--l", "0"], ["lis", "--max-n", "-1"]])
def test_rejected_exact_command_is_one_line_without_bounds(args):
    probe = (
        "import sys\n"
        "from zgap.cli import main\n"
        f"status = main({args!r})\n"
        "print('zgap.bounds' in sys.modules)\n"
        "raise SystemExit(status)\n"
    )
    result = run_probe(probe)
    assert result.returncode == 2
    assert result.stdout == "False\n"
    assert result.stderr.startswith("zgap: ") and len(result.stderr.splitlines()) == 1


# SHA-256 of the --help text of `zgap` and of each command, as Python 3.11's
# argparse prints it at 80 columns.  The defaults shown there come from
# `zgap.arith`, and the top-level text is the `zgap.cli` docstring.
HELP_DIGESTS = {
    "": "1498b442d6cdde7e9994be3aa58b5b72be05acd0f3b807998b317f9bc0609788",
    "bounds": "51e5ef56b263373ed205327c3f0e2d6a7181ff57c6b780d3d92a2600d9bd164b",
    "moments": "b793ed7a62773a0e83475ecdc9f1e11c6d5993db4dc75eb9084ba05e3f220bf7",
    "lis": "ec9e7d0ef3f39454809013bc11280e15153931247338d39bf1353447fad55cc7",
    "hankel": "297687f6e4fc766494b37c879d770c1a4f1c32fb20e2d586d6023bc5cd280bf1",
    "identity": "53d8bdff09212f3c3c44247804136763072996a9cc8798b5a0e5e8ab44c64901",
    "arithfactor": "f352b6da6eedbf51a8c0de1b8b1e071adc86d7986ef84f65a6225ced6ab6ffc1",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_is_byte_identical(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc_info:
        main([*command.split(), "--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


def test_parse_config_defaults_and_flag():
    assert build_parser().parse_args(["bounds", "--n", "2"]).tol == 1e-8
    args = build_parser().parse_args(["bounds", "--n", "2", "--tol", "1e-9"])
    assert args.tol == 1e-9


def test_plain_writes_every_value_in_one_format():
    row = bounds.CheckResult("lambda_consistency", False, math.inf)
    value = {"x": Fraction(-3, 4), "d": Fraction(3), "rows": (row,), "n": 2, "ok": True}
    plain = _plain(value)
    assert plain == {"x": "-3/4", "d": "3/1", "rows": [["lambda_consistency", False, "inf"]],
                     "n": 2, "ok": True}
    assert plain["ok"] is True and plain["rows"][0][1] is False
    assert type(plain["n"]) is int


@pytest.mark.parametrize(
    "command",
    ["lis --l 3 --max-n 7 --format json", "bounds --n 1 --format json"],
    ids=["lis", "bounds"],
)
def test_output_file_determinism(command, tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main([*command.split(), "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cross_process_determinism(tmp_path):
    outputs = []
    for name in ("x.json", "y.json"):
        path = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "zgap.cli", "hankel", "--l", "3", "--terms", "8",
             "--output", str(path)],
            check=True,
        )
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


# SHA-256 of stdout and the exit status of the exact-arithmetic reports, in
# every format, and of the JSON float reports of `bounds` and `arithfactor`.
# The CLI contract is byte-identical output, so any change to these bytes
# must be deliberate.
REPORT_DIGESTS = {
    "bounds --n 1 --format json":
        (0, "94532ff3f2d1bddd8abdff6a3ba9ce8ea3024c5c335756e0df5019aaac417917"),
    "bounds --n 1 --format csv":
        (0, "b459962903705da2532ef19fefd319406383677555ab89361892aba3f0e6e585"),
    "bounds --n 1 --format text":
        (0, "0dffa513306003b19bd7b661be582a5c7651bf53eaad712d8a417a0bb487e19a"),
    "bounds --n 1 --corrupt --format json":
        (1, "77449b544e646ffaa188bb06cca6072f497f79280a45c7c48463a48c519ff455"),
    # below PANEL_TOL, so the quadrature threshold is quad_tol itself
    "bounds --n 1 --tol 1e-13 --format json":
        (0, "ba430e093013559a3daba310ccd50356afc3e4c9c350a036222abbd48837139d"),
    "bounds --n 2 --format json":
        (0, "c75823ed93e2c1c86a7c3c68820c2dc4460828a757f7e83f1d7714e877ce0085"),
    "bounds --n 2 --format csv":
        (0, "e463d94c747df33c676950af90f39fc4f56620b1d124d6857e9648bb8f668705"),
    "bounds --n 2 --format text":
        (0, "5aa2b9ac66390e8803f05111493ebc1c045af56c5c2e89b65842be424f5a19cc"),
    "arithfactor --l 2 --format json":
        (0, "2feab2b0f211331ca516dbb1eb469be605847b909e68003f194a5defd542381b"),
    "moments --l 4 --format json":
        (0, "8ce69da7807f7c078af7ba87af875f877b95bb46c480c9f28bdb331bd18d1051"),
    "moments --l 4 --format csv":
        (0, "5f5ee024e7a5bb98eb609ea837f3c8b04296a6aae268368fea1531e2b47cd0e5"),
    "moments --l 4 --format text":
        (0, "5b1016b128a93123b687cb8fb8aea1962ff3abb2ab8ab7e59db00d84e8f27f8f"),
    "moments --l 4 --corrupt --format json":
        (1, "40dd869f78daa129becb4a3da178a2bfaddf82825b17a436447f2085d07c0b2a"),
    "moments --l 4 --corrupt --format csv":
        (1, "0fa83b5936d787f9e030f7e12e5946a0e3f3a00f163f83624f3c86a8707a30bc"),
    "moments --l 4 --corrupt --format text":
        (1, "10d1ea2b291df23118cd9361bca50df0bda3710ba7624f1fa87cf06a1e003a3f"),
    "moments --l 4 --pair 3,2 --format json":
        (0, "adb6a7820e682a452c6b675644bba63ebd74ddb2c678c577a8887e8847fde597"),
    "moments --l 4 --pair 3,2 --format csv":
        (0, "30c54d226ea2591c42d75da00ce00beceb4fab76937e943dcc07f17033f5b826"),
    "moments --l 4 --pair 3,2 --format text":
        (0, "07cdbd6991916ac19b5a263c1d6011f1857c2e8beed5e31ed23df0ab9ef7f402"),
    "moments --l 2 --format json":
        (0, "7e02f0164461ac2176b852cfe0ba09a591d8411a8072e6e0d00fecafaa877824"),
    "moments --l 2 --format csv":
        (0, "464560ea64a1dcd8164f4c8219c66ac50b04f88f4bdd4e96e919f2e81edd93e1"),
    "moments --l 2 --format text":
        (0, "a54c16a41ae8f251674705d92e90532b0b50ee63e9938986e84ac38d986d2701"),
    "lis --l 3 --format json":
        (0, "37f0544c65764ee2ee4d29e843caa29ff71aba548968930e5e27a8e9469897d2"),
    "lis --l 3 --format csv":
        (0, "ea23cbece24debeb4a0923ac424555523e143dc11e4e9c56251d9c83f0d379ed"),
    "lis --l 3 --format text":
        (0, "753117200815c09e3f7cb7f4cb05b71f3beed234c975fb0633901172e2fe1ad1"),
    "lis --l 4 --max-n 14 --format json":
        (0, "b5f5ece60eaa8bb8a0a5bf5a059b2dd190619686c91b88231da68717d26c0565"),
    "lis --l 4 --max-n 14 --format csv":
        (0, "5dccfd72c16765c28d9928408ba89cd45743687bcf45869d518d4937273b2ff9"),
    "lis --l 4 --max-n 14 --format text":
        (0, "877aa29fe55f49f88be001b2f6259c17c90fa81953fd8a18f2da52c4c22d4ec7"),
    "lis --l 10 --max-n 6 --format json":
        (0, "4509805ea8f4b20f435d224690b19727b1ee1ebae42adb13d7b24c860519e417"),
    "lis --l 10 --max-n 6 --format csv":
        (0, "fa669c3910dda76eb3c20c4d321ecb0ac81c2dd1641ad566a859af851b9791c8"),
    "lis --l 10 --max-n 6 --format text":
        (0, "dc4973bae990f37028621e595c80d3de4524e736bfb6715bfe18d6df97705700"),
    # one-part shapes only
    "lis --l 1 --max-n 12 --format csv":
        (0, "426e69562b65259344fd987bf35956b882d623e39a2fa8bcddcad95edbed77bb"),
    # the series route reads a 2 x 2 determinant in place of the 20 x 20 one
    "lis --l 20 --max-n 2 --format json":
        (0, "b139d9129ec3c262b4012af4fa390e4b11cd097bea7597850c86952e998b2179"),
    "hankel --l 3 --format json":
        (0, "d4afaaaf2824c6b6d2f7d4e5586e72edf5fd59d66c7647b232d04603c7b7dd4a"),
    "hankel --l 3 --format csv":
        (0, "7798ea2365558db7d547533d49b279d52109956e64a52e5202a448d9d65bba1c"),
    "hankel --l 3 --format text":
        (0, "24311d8a1cc09a3682ff19e156b79e8cb3b39f88e78f0da4edb5fc0b0f73ef33"),
    "identity --l 3 --format json":
        (0, "86661737ae2572a1a74a10539207b7246835b8f282a61b928a8bb0ad9a1783b1"),
    "identity --l 3 --format csv":
        (0, "802a2475cec089fc8da1f1080429b0a3801af28053730fa696a49d447a870bc6"),
    "identity --l 3 --format text":
        (0, "674c597435b7045a97c20502b2ba661b385aacde2977562709d885b38c22ffaa"),
    # the determinants benchmark's identity command
    "identity --l 4 --terms 12 --format json":
        (0, "092c919a7a8d3aed4bb351930acf135dfd698df7ab40f750e5c5b511f4f15f56"),
    # long one-column shapes, (1,) * k + mu
    "identity --l 1 --terms 200 --format json":
        (0, "b1163293b8e19991e01ad55359441e65c9998e4f88c6501ba8a99d929bab65ba"),
    "arithfactor --l 2 --format csv":
        (0, "05ffc017382a40ebe414ac8b6128681edef45f62c623d137587103130d0b07be"),
    "arithfactor --l 2 --format text":
        (0, "a457ae746a9cbd18fbab28576ece4b5bbb29cab2827f24abb133b6ce0a38e910"),
    # the determinants benchmark's hankel command
    "hankel --l 6 --terms 12 --format json":
        (0, "45a3e28abfcfaae80b1bf3ec04f0a28c7403dd6b2428f631f659969395087329"),
    # an invalid certificate: the loose X bisection fails x_consistency
    "bounds --n 1 --tol 1 --format json":
        (1, "38dca9b9e909431648fd941973c7b80f8c8d39cb6980da207d6c5c113d28e262"),
    "bounds --n 1 --corrupt --format text":
        (1, "89460e3ad20b45898a1411107cadca766e62e4bf6cf96f2dd583d9545c102e2a"),
    # integral exponents, which a CSV cell writes as "2/1", not "2"
    "hankel --l 2 --terms 4 --format csv":
        (0, "63f7d192e647b30eb5e1389dbc8ba13cc8cf9caaab1efd4a26236267ab1f2c1d"),
}


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_exact_report_is_byte_identical(command, capsys, monkeypatch):
    argv = command.split()
    if argv[0] == "moments" and "--corrupt" in argv:
        # `moments` has no --corrupt flag: in these keys the word marks a
        # report run with the h = 2 reference entry raised
        argv.remove("--corrupt")
        raise_reference_h2(monkeypatch)
    status, out = run_cli(argv, capsys)
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == REPORT_DIGESTS[command]


BOUNDS_CHECKS = ["data_integrity", "v_positive", "g_increasing", "lambda_consistency",
                 "pi_integral", "x_consistency", "bound_above_threshold", "bound"]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("n", [1, 2])
def test_bounds_report_pins_check_names_and_flags(n, fmt, capsys):
    """The checks, their verdicts and the exit status in every format.  The
    JSON bytes, float residuals included, are pinned in `REPORT_DIGESTS`; a
    digest there may move only with a CHANGES.md entry that says why."""
    status, out = run_cli(["bounds", "--n", str(n), "--format", fmt], capsys)
    assert status == 0
    if fmt == "json":
        payload = json.loads(out)
        rows = [(c["name"], c["passed"]) for c in payload["checks"]]
        rows.append(("bound", payload["valid"]))
    else:
        header, *lines = out.splitlines()
        sep = "," if fmt == "csv" else "  "
        assert header.split(sep) == ["check", "passed", "residual"]
        cells = [line.split(sep) for line in lines]
        rows = [(name, passed == "True") for name, passed, _ in cells]
    assert rows == [(name, True) for name in BOUNDS_CHECKS]
