"""Output checks for the benchmark: what each zgap invocation must print,
and how a recorded expectation is compared with a fresh result.

Expectations live in ``expected.json`` beside this file and were recorded
from a commit whose outputs are known to be right (see ``record.py``):

* exact-arithmetic commands (``moments``, ``hankel``, ``identity``, ``lis``)
  must reproduce the recorded SHA-256 of their stdout byte for byte;
* ``bounds`` must reproduce its exact fields, check names and pass flags;
  the float residuals are free to move;
* ``arithfactor`` must lie within its own emitted ``error_bound`` of the
  recorded value;
* rejected inputs must exit 2 with one line on stderr and nothing on stdout;
* library calls must return a valid certificate with the recorded
  ``x_exact``, and no perturbed X may exceed the certified X by more than a
  relative 1e-6.

An operation *fails* when any of these does not hold or a traceback shows
on stderr.  Its output is *wrong* when stdout does not match, which is the
narrower verdict the benchmark reports as ``correct``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

BOUNDS_EXACT_FIELDS = ("inputs", "x_exact", "v_exact", "lambda_exact", "threshold", "valid")
PERTURBED_SLACK = 1e-6


@dataclass(frozen=True)
class Verdict:
    failed: bool
    wrong_output: bool
    reason: str = ""


OK = Verdict(False, False)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _bounds_fields(stdout: bytes) -> dict:
    report = json.loads(stdout)
    fields = {key: report[key] for key in BOUNDS_EXACT_FIELDS}
    fields["checks"] = [[check["name"], check["passed"]] for check in report["checks"]]
    return fields


def expectation_from(args: list[str], exit_code: int, stdout: bytes) -> dict:
    """The expectation to record for one CLI invocation's result."""
    expect: dict = {"exit": exit_code}
    if exit_code != 0:
        return expect
    if args[0] == "bounds":
        expect["bounds"] = _bounds_fields(stdout)
    elif args[0] == "arithfactor":
        expect["arithfactor_value"] = float(json.loads(stdout)["value"])
    else:
        expect["sha256"] = hashlib.sha256(stdout).hexdigest()
    return expect


def _stdout_problem(expect: dict, stdout: bytes) -> str:
    """Empty string when stdout matches the expectation."""
    if expect["exit"] != 0:
        return "" if not stdout else "a rejected input printed a report"
    try:
        if "sha256" in expect:
            digest = hashlib.sha256(stdout).hexdigest()
            return "" if digest == expect["sha256"] else f"stdout digest {digest[:12]} differs"
        if "bounds" in expect:
            fields = _bounds_fields(stdout)
            bad = sorted(k for k in expect["bounds"] if fields.get(k) != expect["bounds"][k])
            return "" if not bad else "exact fields differ: " + ", ".join(bad)
        if "arithfactor_value" in expect:
            report = json.loads(stdout)
            gap = abs(float(report["value"]) - expect["arithfactor_value"])
            bound = float(report["error_bound"])
            return "" if gap <= bound else f"value off by {gap:.3e} > error_bound {bound:.3e}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable report: {exc!r}"
    raise ValueError(f"expectation has no stdout rule: {expect}")


def check_cli(expect: dict, exit_code: int, stdout: bytes, stderr: bytes) -> Verdict:
    """Verdict on one CLI invocation against its recorded expectation."""
    problem = _stdout_problem(expect, stdout)
    if problem:
        return Verdict(True, True, problem)
    if b"Traceback" in stderr:
        return Verdict(True, False, f"traceback on stderr, exit {exit_code}")
    if exit_code != expect["exit"]:
        return Verdict(True, False, f"exit {exit_code}, expected {expect['exit']}")
    if exit_code == 2 and len(stderr.strip().splitlines()) != 1:
        return Verdict(True, False, "rejection is not a one-line error")
    return OK


def check_library(expect: dict, call: str, n: int, out) -> Verdict:
    """Verdict on one in-process call.  `out` is [valid, x_exact] for
    certify_bound and the list of perturbed X values for perturbed_x_values."""
    recorded = expect[str(n)]
    if call == "certify_call":
        valid, x_exact = out
        if valid is not True or x_exact != recorded["x_exact"]:
            return Verdict(True, True, f"certificate n={n}: valid={valid}, x_exact={x_exact}")
        return OK
    ceiling = float(Fraction(recorded["x_exact"])) * (1 + PERTURBED_SLACK)
    if not out or any(not x <= ceiling for x in out):
        return Verdict(True, True, f"perturbed X for n={n} exceeds {ceiling!r}: {out}")
    return OK
