"""The benchmark's checker and tracer are not vacuous: known-bad results
fail, and the traced run sees the layers it claims to measure."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402
from reference import NOMINAL_S, SpeedGauge  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECTED = checker.load_expected()

# `bounds --n 1 --tol nan` as the seed commit answers it: exit 1, traceback
SEED_TOL_NAN = (
    1,
    b"",
    b"Traceback (most recent call last):\n"
    b"  ...\n"
    b"zgap.bounds.QuadratureError: panel doubling did not converge "
    b"(achieved error estimate 5.387e-13)\n",
)


def zgap(*args: str) -> tuple[int, bytes, bytes]:
    result = subprocess.run([sys.executable, "-m", "zgap.cli", *args], capture_output=True,
                            env=run.Runner().env, check=False, timeout=120)
    return result.returncode, result.stdout, result.stderr


def test_corrupted_certificate_counts_as_failed():
    code, out, err = zgap("bounds", "--n", "1", "--corrupt")
    assert code == 1
    verdict = checker.check_cli(EXPECTED["cli"]["bounds --n 1"], code, out, err)
    assert verdict.failed and verdict.wrong_output


def test_one_byte_change_to_a_recorded_digest_fails():
    code, out, err = zgap("identity", "--l", "4", "--terms", "12")
    expect = EXPECTED["cli"]["identity --l 4 --terms 12"]
    assert checker.check_cli(expect, code, out, err) == checker.OK
    digest = expect["sha256"]
    changed = dict(expect, sha256=("1" if digest[0] == "0" else "0") + digest[1:])
    verdict = checker.check_cli(changed, code, out, err)
    assert verdict.failed and verdict.wrong_output


def test_one_line_rejection_passes():
    code, out, err = zgap("bounds", "--n", "1", "--tol", "0")
    assert checker.check_cli(EXPECTED["cli"]["bounds --n 1 --tol 0"], code, out, err) == checker.OK


def test_seed_tol_nan_traceback_shows_in_failed_ratio():
    tally = run.Tally()
    for _, command in run.CLI_WORKLOADS["certify"]:
        if command == "bounds --n 1 --tol nan":
            verdict = checker.check_cli(EXPECTED["cli"][command], *SEED_TOL_NAN)
        else:
            verdict = checker.OK
        tally.add(verdict, command, timed=True)
    assert tally.failed / tally.attempted == 1 / 6
    assert tally.wrong == 0


def test_library_checks_reject_wrong_certificates():
    expect = EXPECTED["library"]
    x1 = expect["1"]["x_exact"]
    assert checker.check_library(expect, "certify_call", 1, [True, x1]) == checker.OK
    assert checker.check_library(expect, "certify_call", 1, [False, x1]).failed
    assert checker.check_library(expect, "certify_call", 1, [True, "1/1"]).failed
    assert checker.check_library(expect, "perturb_call", 1, [3.9, 3.9]) == checker.OK
    assert checker.check_library(expect, "perturb_call", 1, [3.9, 4.0]).failed


def test_tracer_sees_series_layer_and_reports_absent_names(tmp_path):
    spans_out = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans_out), "identity", "--l", "2",
         "--terms", "4"],
        capture_output=True, env=run.Runner().env, check=False, timeout=120)
    assert result.returncode == 0
    dump = json.loads(spans_out.read_text())
    names = {span[1] for span in dump["spans"]}
    assert {"cli.main", "series.unitary_average", "series.hankel_determinant",
            "series.determinant"} <= names
    assert dump["counts"]["series.mul.calls"] > 0
    assert dump["absent"] == []
    tracer = Tracer()
    tracer.wrap_span(types.SimpleNamespace(), "determinant", "series.determinant")
    assert tracer.absent == ["series.determinant"]


def test_self_time_subtracts_direct_children():
    spans = [run.Span(("i", 0), None, "cli.main", 0.0, 10.0, {}),
             run.Span(("i", 1), ("i", 0), "bounds.certify_bound", 1.0, 5.0, {}),
             run.Span(("i", 2), ("i", 1), "bounds.solve_lambda", 2.0, 4.0, {})]
    layers = run.pass_layers(run.PassResult(10.0, {}, spans))
    assert layers["cli.self_s"] == 6.0
    assert layers["bounds.certify_bound.self_s"] == 2.0
    assert layers["bounds.solve_lambda_s"] == 2.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False, timeout=120)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout


def test_speed_gauge_scales_by_the_reference_loops_around_each_time():
    readings = iter([0.01, 0.03, 0.015])
    gauge = SpeedGauge(lambda: next(readings))
    assert gauge.scaled(2.0) == pytest.approx(2.0 * NOMINAL_S / 0.02)
    assert gauge.scaled(1.0) == pytest.approx(1.0 * NOMINAL_S / 0.0225)
