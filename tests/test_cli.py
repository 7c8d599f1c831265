"""CLI front end: reports, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from zgap import bounds, moments
from zgap.cli import RunConfig, main, parse_config, run


def run_cli(args, capsys):
    status = main(args)
    out = capsys.readouterr().out
    return status, out


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


def test_moments_command(capsys):
    status, out = run_cli(["moments", "--l", "4", "--pair", "2,1"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert all(r["match"] for r in payload["records"])


def test_moments_command_corrupted_table(capsys):
    status, out = run_cli(["moments", "--l", "4", "--pair", "2,1", "--corrupt"], capsys)
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


_SMALL_RANGES = {"--l": st.integers(-2, 6), "--terms": st.integers(-3, 12),
                 "--max-n": st.integers(-3, 9)}
_FLAGS = {"hankel": ("--l", "--terms"), "identity": ("--l", "--terms"),
          "lis": ("--l", "--max-n"), "moments": ("--l",)}


@st.composite
def small_argv(draw):
    """A hankel, identity, lis or moments command line in any format, each
    range flag either left at its default or set to a small value, zero and
    negative values included."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, "--format", draw(st.sampled_from(["json", "csv", "text"]))]
    for flag in _FLAGS[command]:
        value = draw(st.none() | _SMALL_RANGES[flag])
        if value is not None:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=60, deadline=None)
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
    def diverge(*args, **kwargs):
        raise bounds.QuadratureError("no convergence within 4096 panels", 1e-3)

    monkeypatch.setattr(bounds, "certify_bound", diverge)
    assert main(["bounds", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("zgap: no convergence within 4096 panels")
    assert len(captured.err.splitlines()) == 1


def test_import_loads_no_numpy():
    probe = (
        "import zgap.cli, sys; "
        "assert not any(m.split('.')[0] == 'numpy' for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_parse_config_defaults_and_env(monkeypatch):
    config = parse_config(["bounds", "--n", "2"])
    assert config.tol == 1e-8
    monkeypatch.setenv("ZGAP_TOL", "1e-6")
    config = parse_config(["bounds", "--n", "2"])
    assert config.tol == 1e-6
    config = parse_config(["bounds", "--n", "2", "--tol", "1e-9"])
    assert config.tol == 1e-9  # explicit flag wins


def test_output_file_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        config = RunConfig(command="lis", l=3, max_n=7, format="json", output=str(path))
        assert run(config) == 0
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
