"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each criterion is also an ordinary assertion so the suite fails
loudly anywhere a criterion regresses.
"""

import math
import subprocess
import sys
from fractions import Fraction

from oracles import cue_moment_coefficient, hall_ratio
from zgap import bounds, cli, lis, moments, series


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_reference_column_reproduced_exactly():
    mismatches = [
        h
        for h in range(5)
        if moments.joint_moment_coefficient(h, 4) != moments.coefficient_column(1)[h]
    ]
    report(
        "1 coefficient table, exact",
        not mismatches,
        f"h = 0..4 partition sums vs reference, mismatches: {mismatches}",
    )


def test_criterion_2_ratio_reproduction_exact():
    expected = {
        (1, 1): Fraction(5797, 213),
        (2, 1): Fraction(2974545, 149081),
        (3, 1): Fraction(87212385, 21783251),
        (4, 1): Fraction(501014773, 638284305),
        (1, 2): Fraction(81913152475, 4033246857),
        (2, 2): Fraction(84698183997, 5727828727),
        (3, 2): Fraction(2823819562411, 933497701947),
        (4, 2): Fraction(13933317551283, 22412778767917),
    }
    bad = [key for key, value in expected.items() if hall_ratio(*key) != value]
    report("2 eight ratio constants, exact", not bad, f"mismatches: {bad}")


def _certification_chain(n, x_print, param_prints, threshold):
    certificate = bounds.certify_bound(n, quad_tol=1e-8)
    x_ok = abs(certificate.x_value - x_print) < 1e-5
    v_lam = certificate.params.v + (certificate.params.lam,)
    params_ok = all(abs(a - b) < 1e-4 for a, b in zip(v_lam, param_prints))
    pi_residual = next(c for c in certificate.checks if c.name == "pi_integral").residual
    pi_ok = abs(pi_residual) < 1e-6
    bound_ok = certificate.valid and certificate.bound > threshold
    detail = (
        f"X={certificate.x_value:.7f}, pi residual={pi_residual:.2e}, "
        f"bound={certificate.bound:.6f} > {threshold}"
    )
    return x_ok and params_ok and pi_ok and bound_ok, detail


def test_criterion_3_first_derivative_chain():
    ok, detail = _certification_chain(1, 3.93116, (0.95297, 1.01903, 1.07681, 0.98492), 1.98)
    report("3 order-1 certification chain", ok, detail)


def test_criterion_4_second_derivative_chain():
    ok, detail = _certification_chain(2, 2.94783, (0.86987, 0.87121, 0.89954, 0.89144), 1.71)
    report("4 order-2 certification chain", ok, detail)


def test_criterion_5_lambda_formulations_agree():
    a, b, c, d = (hall_ratio(h, 1) for h in (1, 2, 3, 4))
    derived = bounds.derive_params(a, b, c, d, bounds.closed_form_x(a, b, c, d))
    solved = bounds.solve_lambda(derived.params.v, 4, tol=1e-6)
    gap = abs(solved - float(derived.sigma[3] ** 2))
    report("5 lambda equation equivalence", gap < 1e-4, f"|gap| = {gap:.2e}")


def test_criterion_6_moment_normalizations():
    expected = {1: 1, 2: 2, 3: 42, 4: 24024}
    ok = all(
        cue_moment_coefficient(l) * math.factorial(l * l) == expected[l]
        for l in expected
    )
    report("6 moment normalization constants, exact", ok, "l = 1..4")


def test_criterion_7_hankel_structure():
    ok = True
    for l in range(1, 5):
        det = series.hankel_determinant(l, 3)
        sign = -1 if (l * (l - 1) // 2) % 2 else 1
        ok = ok and det.offset == Fraction(l * l, 2)
        ok = ok and sign * det.coeffs[0] == cue_moment_coefficient(l)
    report("7 determinant grading and leading law", ok, "l = 1..4, exact")


def test_criterion_8_three_way_counting_agreement():
    failures = []
    for l in range(1, 6):
        for n in range(1, 10):
            rsk = lis.count_by_tableaux(l, n)
            if rsk != lis.count_by_enumeration(l, n) or rsk != lis.count_by_series(l, n):
                failures.append((l, n))
    catalan = [1]
    for m in range(14):
        catalan.append(sum(catalan[i] * catalan[m - i] for i in range(m + 1)))
    catalan_ok = all(lis.count_by_tableaux(2, n) == catalan[n] for n in range(15))
    report(
        "8 three-way count agreement",
        not failures and catalan_ok,
        f"45 equalities, Catalan through n=14; failures: {failures}",
    )


def test_criterion_9_unitary_identity():
    bad = [
        l for l in (1, 2, 3) if not series.check_hankel_identity(l, terms=8).matched
    ]
    report("9 unitary-average identity, 8 coefficients", not bad, f"failures: {bad}")


def test_criterion_10_property_suite(tmp_path):
    # (a) corrupting one table constant invalidates the certificate
    column = moments.coefficient_column(1)
    column[2] = Fraction(column[2].numerator + 1, column[2].denominator)
    table_mutation_caught = not bounds.certify_bound(1, coefficients=column).valid

    # (b) corrupting one series coefficient breaks the identity check
    det = series.hankel_determinant(2, 6)
    corrupted = series.HalfPowerSeries(
        det.offset, det.coeffs[:2] + (det.coeffs[2] + Fraction(1, 7),) + det.coeffs[3:]
    )
    series_mutation_caught = not series.check_hankel_identity(2, 6, rhs=corrupted).matched

    # (c) lambda grows when any single v_h grows by 10%
    base_v = bounds.certify_bound(1).params.v
    base_lambda = bounds.solve_lambda(base_v, 4, tol=1e-6)
    monotone = True
    for h in range(3):
        bumped = tuple(v * 1.1 if i == h else v for i, v in enumerate(base_v))
        monotone = monotone and bounds.solve_lambda(bumped, 4, tol=1e-6) > base_lambda

    # (d) identical CLI configs give byte-identical artifacts
    deterministic = True
    for command in (
        ["bounds", "--n", "1"],
        ["moments", "--l", "4", "--pair", "2,1"],
        ["lis", "--l", "2", "--max-n", "6"],
        ["hankel", "--l", "4", "--terms", "12"],
        ["identity", "--l", "2"],
        ["arithfactor", "--l", "2", "--cutoff", "1000"],
    ):
        blobs = []
        for i in range(2):
            path = tmp_path / f"{command[0]}-{i}.json"
            assert cli.main(command + ["--output", str(path)]) in (0, 1)
            blobs.append(path.read_bytes())
        deterministic = deterministic and blobs[0] == blobs[1]

    ok = table_mutation_caught and series_mutation_caught and monotone and deterministic
    report(
        "10 property suite",
        ok,
        f"mutations caught: {table_mutation_caught}/{series_mutation_caught}, "
        f"monotone lambda: {monotone}, deterministic CLI: {deterministic}",
    )


def test_supplementary_local_non_improvement():
    # +-1% perturbations of the certified parameters do not improve X
    certified = bounds.certify_bound(1).x_value
    best = max(bounds.perturbed_x_values(1, rel=0.01))
    ok = best <= certified + 1e-6 * certified
    print(f"SUPPLEMENTARY local non-improvement: {'PASS' if ok else 'FAIL'} "
          f"(best perturbed X = {best:.7f} vs certified {certified:.7f})")
    assert ok


def test_supplementary_cross_process_cli_determinism(tmp_path):
    blobs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "zgap.cli", "identity", "--l", "3",
             "--output", str(path)],
            check=True,
        )
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
