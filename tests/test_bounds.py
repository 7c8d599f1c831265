"""Quadrature engine, lambda equation, closed-form optimizer, certificates."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import roots_legendre

from oracles import hall_ratio
from zgap import bounds, moments
from zgap.bounds import (
    QuadratureError,
    WirtingerParams,
    certify_bound,
    closed_form_x,
    derive_params,
    integrate_half_line,
    integrate_unit_interval,
    rational_form_deviation,
    solve_lambda,
    solve_x,
    _GAUSS_KRONROD_15,
    _PANEL_BUDGET,
    _log_residual_from_coeffs,
)
from zgap.moments import coefficient_column, ratio_set_from_values

RATIO_INPUTS = {
    1: tuple(hall_ratio(h, 1) for h in (1, 2, 3, 4)),
    2: tuple(hall_ratio(h, 2) for h in (1, 2, 3, 4)),
}
# five-decimal reference prints for (v1, v2, v3, lambda)
REFERENCE_PARAMS = {
    1: (0.95297, 1.01903, 1.07681, 0.98492),
    2: (0.86987, 0.87121, 0.89954, 0.89144),
}
REFERENCE_X = {1: 3.93116, 2: 2.94783}


def lambda_equation_residual(params, quad_tol=bounds.DEFAULT_QUAD_TOL):
    """The log-form lambda equation's residual at `params`."""
    coeffs = bounds._weight_coeffs(params.v, params.l)
    return _log_residual_from_coeffs(coeffs, params.lam, params.l, quad_tol)


def derived_params_for(n):
    a, b, c, d = RATIO_INPUTS[n]
    return derive_params(a, b, c, d, closed_form_x(a, b, c, d))


# ---------------------------------------------------------------- quadrature


def gauss_kronrod_rule():
    """(node, Kronrod weight, Gauss weight) for all 15 nodes on [-1, 1]."""
    return [
        (sign * x, wk, wg)
        for x, wk, wg in _GAUSS_KRONROD_15
        for sign in ((-1.0, 1.0) if x else (1.0,))
    ]


def test_kronrod_rule_integrates_polynomials_exactly():
    rule = gauss_kronrod_rule()
    assert len(rule) == 15
    for k in range(24):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(sum(wk * x**k for x, wk, _ in rule) - exact) < 1e-14


def test_gauss_subset_is_the_seven_point_legendre_rule():
    gauss = sorted((x, wg) for x, _, wg in gauss_kronrod_rule() if wg)
    nodes, weights = roots_legendre(7)
    assert len(gauss) == 7
    for (x, wg), node, weight in zip(gauss, nodes, weights):
        assert abs(x - node) < 1e-15
        assert abs(wg - weight) < 1e-15


def test_quadrature_spends_fifteen_evaluations_per_panel():
    # both rules integrate a degree-13 polynomial exactly, so none of the
    # 4 initial panels is bisected
    evaluations = 0

    def f(s):
        nonlocal evaluations
        evaluations += 1
        return 1.0 + s**13

    assert abs(integrate_unit_interval(f) - 15.0 / 14.0) < 1e-14
    assert evaluations == 15 * 4


def test_integrate_half_line_arctangent():
    value = integrate_half_line(lambda u: 1.0 / (1.0 + u * u), 1e-10)
    assert abs(value - math.pi / 2) < 1e-10


def test_integrate_half_line_against_library_quadrature():
    def f(u):
        return math.exp(-u) * u * u

    mine = integrate_half_line(f, 1e-10)
    reference, _ = quad(f, 0, math.inf)
    assert abs(mine - reference) < 1e-9
    assert abs(mine - 2.0) < 1e-9  # Gamma(3)


def test_quadrature_error_on_divergent_integrand():
    evaluations = 0

    def f(u):
        nonlocal evaluations
        evaluations += 1
        return 1.0 / u

    with pytest.raises(QuadratureError) as exc_info:
        integrate_half_line(f, 1e-8)
    assert exc_info.value.achieved_error > 0
    assert evaluations <= 15 * _PANEL_BUDGET


# ----------------------------------------------------------- weight polynomial


def certify_column(column):
    """The n = 1 certificate for `column`, and its checks by name."""
    certificate = certify_bound(1, coefficients=column)
    return certificate, {c.name: c for c in certificate.checks}


def test_g_monotone_for_derived_parameters():
    certificate, checks = certify_column(coefficient_column(1))
    assert all(v > 0 for v in certificate.v_exact)
    assert checks["g_increasing"].passed
    assert checks["g_increasing"].residual == 0.0


def test_g_monotone_check_finds_witness():
    # doubling the h = 0 entry gives v_exact ~ (11.30, -4.46, 5.07); the row
    # passes only when every exact v_h >= 0, so the negative v_2 fails it
    column = coefficient_column(1)
    column[0] *= 2
    certificate, checks = certify_column(column)
    assert [float(v) for v in certificate.v_exact] == pytest.approx(
        [11.298, -4.4588, 5.0691], abs=1e-3
    )
    assert not checks["g_increasing"].passed
    assert checks["g_increasing"].residual == 0.0


def test_params_length_validation():
    with pytest.raises(ValueError):
        WirtingerParams(l=4, v=(1.0, 1.0), lam=1.0)


# ------------------------------------------------------------ lambda equation


def test_lambda_residual_at_reference_parameters():
    for n in (1, 2):
        v1, v2, v3, lam = REFERENCE_PARAMS[n]
        params = WirtingerParams(l=4, v=(v1, v2, v3), lam=lam)
        assert abs(lambda_equation_residual(params)) < 1e-3


def test_lambda_residual_vanishes_at_derived_parameters():
    params = derived_params_for(1).params
    assert abs(lambda_equation_residual(params, 1e-10)) < 1e-8


def test_lambda_residual_large_lambda_limit():
    params = derived_params_for(1).params
    residual = lambda_equation_residual(
        WirtingerParams(l=4, v=params.v, lam=1e12), 1e-8
    )
    assert residual > -4 * math.pi
    assert abs(residual + 4 * math.pi) < 0.5


def test_lambda_residual_decreasing_in_lambda():
    params = derived_params_for(1).params
    values = [
        lambda_equation_residual(WirtingerParams(l=4, v=params.v, lam=lam))
        for lam in (0.5, 1.0, 2.0)
    ]
    assert values[0] > values[1] > values[2]


def test_lambda_residual_matches_library_quadrature():
    params = derived_params_for(1).params

    def integrand(u):
        g = 7 * sum(
            math.comb(4, h) * v * u ** (2 * h) for h, v in enumerate(params.v_full(), 1)
        )
        return math.log1p(g / (7 * params.lam)) / (u * u)

    reference, _ = quad(integrand, 0, math.inf, limit=400)
    mine = lambda_equation_residual(params, 1e-10) + 4 * math.pi
    assert abs(mine - reference) < 1e-7


def test_lambda_residual_requires_positive_lambda():
    params = derived_params_for(1).params
    with pytest.raises(ValueError):
        lambda_equation_residual(WirtingerParams(l=4, v=params.v, lam=-1.0))


@pytest.mark.parametrize("n", [1, 2])
def test_solve_lambda_matches_reference(n):
    v1, v2, v3, lam = REFERENCE_PARAMS[n]
    solved = solve_lambda((v1, v2, v3), 4, tol=1e-6)
    assert abs(solved - lam) < 1e-4


def test_solve_lambda_scales_with_weight_polynomial():
    # replacing the polynomial P by 2P at fixed lambda increases the
    # integral, so the solving lambda must grow (and exactly doubles, since
    # only P/lambda enters)
    derived = derived_params_for(1)
    coeffs = [math.comb(4, h) * v for h, v in enumerate(derived.params.v_full(), 1)]

    def solve(cs):
        lo, hi = 1e-3, 1e3
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if _log_residual_from_coeffs(cs, mid, 4, 1e-9) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    base = solve(coeffs)
    doubled = solve([2 * c for c in coeffs])
    assert doubled > base
    assert abs(doubled - 2 * base) < 1e-6


def test_solve_lambda_bracket_failure():
    # weight polynomial so large that lambda would have to leave the bracket
    with pytest.raises(ValueError, match="no sign change"):
        solve_lambda((1e12, 1e12, 1e12), 4, tol=1e-4)


@pytest.mark.parametrize("v", [(0.95297, 1.01903, 1.07681), (8.0, 8.0, 8.0)])
def test_solve_lambda_evaluates_no_lambda_twice(v, monkeypatch):
    # the first v has its root below lambda = 1, the second above it
    seen = []
    residual = bounds._log_residual_from_coeffs

    def recording(coeffs, lam, *args):
        seen.append(lam)
        return residual(coeffs, lam, *args)

    monkeypatch.setattr(bounds, "_log_residual_from_coeffs", recording)
    solve_lambda(v, 4)
    assert seen[0] == 1.0
    assert len(seen) == len(set(seen))


BAD_TOLERANCES = [math.nan, math.inf, 0.0, -1.0]


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_solve_lambda_rejects_bad_tolerances(bad):
    v = REFERENCE_PARAMS[1][:3]
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_lambda(v, 4, tol=bad)
    with pytest.raises(ValueError, match="quad_tol must be finite and positive"):
        solve_lambda(v, 4, quad_tol=bad)


# ------------------------------------------------------------- rational form


@pytest.mark.parametrize("n", [1, 2])
def test_rational_form_deviation_at_derived_parameters(n):
    params = derived_params_for(n).params
    assert abs(rational_form_deviation(params, 1e-8)) < 1e-6


def test_rational_form_beta_integral_oracle():
    # with v1 = v2 = v3 = 0 the equation reduces to
    #   int u^6/(u^8 + lam) du = pi  over the real line, whose closed form
    #   (beta integral) gives lam = (4 sin(pi/8))**-8
    lam = (4 * math.sin(math.pi / 8)) ** -8
    params = WirtingerParams(l=4, v=(0.0, 0.0, 0.0), lam=lam)
    assert abs(rational_form_deviation(params, 1e-10)) < 1e-9


def test_rational_form_against_library_quadrature():
    params = derived_params_for(2).params
    value = rational_form_deviation(params, 1e-10) + math.pi

    def integrand(u):
        num = sum(
            math.comb(3, h - 1) * v * u ** (2 * h - 2)
            for h, v in enumerate(params.v_full(), 1)
        )
        den = sum(
            math.comb(4, h) * v * u ** (2 * h)
            for h, v in enumerate(params.v_full(), 1)
        )
        return num / (den + params.lam)

    reference, _ = quad(integrand, -math.inf, math.inf, limit=400)
    assert abs(value - reference) < 1e-8


def test_lambda_equation_formulations_covanish():
    # the two formulations must agree within 10x the quadrature tolerance
    for n in (1, 2):
        params = derived_params_for(n).params
        log_gap = lambda_equation_residual(params, 1e-8)
        rational_gap = rational_form_deviation(params, 1e-8)
        assert abs(log_gap) < 1e-7
        assert abs(rational_gap) < 1e-7


# ------------------------------------------------------- closed form and (81)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_x_matches_reference(n):
    x = closed_form_x(*RATIO_INPUTS[n])
    assert abs(float(x) - REFERENCE_X[n]) < 1e-5


def test_closed_form_x_degenerate_inputs():
    one = Fraction(1)
    with pytest.raises(ValueError):
        closed_form_x(one, one, one, one)
    with pytest.raises(ValueError):
        closed_form_x(one, Fraction(2), Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        closed_form_x(one, Fraction(3), Fraction(2), Fraction(2))


@pytest.mark.parametrize("n", [1, 2])
def test_derived_parameters_match_reference(n):
    derived = derived_params_for(n)
    v1, v2, v3, lam = REFERENCE_PARAMS[n]
    assert abs(derived.params.v[0] - v1) < 1e-4
    assert abs(derived.params.v[1] - v2) < 1e-4
    assert abs(derived.params.v[2] - v3) < 1e-4
    assert abs(derived.params.lam - lam) < 1e-4


def factorization_residuals(derived):
    """Exact coefficient differences (t**8, t**6, t**4, t**2, 1) between the
    two sides of the factorization (*) at the derived values; all zero iff
    the extraction is consistent."""
    v1, v2, v3 = derived.v_exact
    lam = derived.lam_exact
    s1, s2, s3, s4 = derived.sigma
    lhs = (Fraction(1), -4 * v3, 6 * v2, -4 * v1, lam)
    rhs = (
        Fraction(1),
        2 * s2 - s1 * s1,
        s2 * s2 + 2 * s4 - 2 * s1 * s3,
        2 * s2 * s4 - s3 * s3,
        s4 * s4,
    )
    return tuple(p - q for p, q in zip(lhs, rhs))


@pytest.mark.parametrize("n", [1, 2])
def test_factorization_identity_exact(n):
    residuals = factorization_residuals(derived_params_for(n))
    assert all(r == 0 for r in residuals)


def test_derive_params_rejects_degenerate():
    one = Fraction(1)
    with pytest.raises(ValueError):
        derive_params(one, one, one, one, one)
    a, b, c, d = RATIO_INPUTS[1]
    with pytest.raises(ValueError):
        derive_params(a, b, c, d, Fraction(-1))


def test_lambda_exact_equals_sigma4_squared():
    derived = derived_params_for(1)
    assert derived.lam_exact == derived.sigma[3] ** 2


# ------------------------------------------------------------------ root of X


@pytest.mark.parametrize("n", [1, 2])
def test_solve_x_agrees_with_closed_form(n):
    derived = derived_params_for(n)
    ratios = ratio_set_from_values(coefficient_column(n))
    x = solve_x(derived.params.v, derived.params.lam, ratios.capB, 4, tol=1e-8)
    assert abs(x - float(closed_form_x(*RATIO_INPUTS[n]))) < 1e-7


def test_solve_x_one_term_algebra():
    # v = (0,0,0), ratios all 1, lambda = 1: X^l = 2l-1
    x = solve_x((0.0, 0.0, 0.0), 1.0, {h: 1 for h in range(5)}, 4, tol=1e-10)
    assert abs(x - 7 ** 0.25) < 1e-9


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_solve_x_rejects_bad_tolerances(bad):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_x((0.0, 0.0, 0.0), 1.0, {h: 1 for h in range(5)}, 4, tol=bad)


def test_solvers_stop_at_float_resolution():
    # a tolerance below the float spacing at the root cannot be met; the
    # bisection must still stop, at the root it finds for a coarser one
    probe = (
        "from zgap.bounds import solve_lambda, solve_x\n"
        "for tol in (1e-12, 1e-17):\n"
        "    print(repr(solve_lambda((0.95297, 1.01903, 1.07681), 4, tol=tol)),\n"
        "          repr(solve_x((0.0, 0.0, 0.0), 1.0, dict.fromkeys(range(5), 1), 4, tol=tol)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60
    )
    coarse, fine = ([float(x) for x in line.split()] for line in result.stdout.splitlines())
    assert all(abs(a - b) < 1e-12 for a, b in zip(coarse, fine))


def test_solve_x_input_validation():
    with pytest.raises(ValueError):
        solve_x((-1.0, 0.0, 0.0), 1.0, {h: 1 for h in range(5)}, 4)
    with pytest.raises(ValueError):
        solve_x((0.0, 0.0, 0.0), -1.0, {h: 1 for h in range(5)}, 4)
    with pytest.raises(ValueError):
        solve_x((0.0, 0.0, 0.0), 1.0, {h: 0 for h in range(5)}, 4)


# --------------------------------------------------------------- certificates


@pytest.mark.parametrize(
    "n,bound_prefix,threshold",
    [(1, 1.98271, 1.98), (2, 1.71692, 1.71)],
)
def test_certificates(n, bound_prefix, threshold):
    certificate = certify_bound(n)
    assert certificate.valid
    assert certificate.bound > threshold
    assert math.floor(certificate.bound * 1e5) / 1e5 == bound_prefix
    names = [c.name for c in certificate.checks]
    assert names == [
        "data_integrity",
        "v_positive",
        "g_increasing",
        "lambda_consistency",
        "pi_integral",
        "x_consistency",
        "bound_above_threshold",
    ]
    assert certificate.x_exact > certificate.threshold ** 2


def _assert_checks_meet_stated_tolerances(quad_tol):
    certificate = certify_bound(1, quad_tol=quad_tol)
    assert certificate.valid
    by_name = {c.name: c.residual for c in certificate.checks}
    assert by_name["lambda_consistency"] < 1e-4
    assert abs(by_name["pi_integral"]) < 1e-6
    assert by_name["x_consistency"] < 1e-7


def test_certificate_checks_meet_stated_tolerances():
    _assert_checks_meet_stated_tolerances(1e-8)


@pytest.mark.parametrize("quad_tol", [1e-10, 1e-12, 1e-13])
def test_certificate_checks_meet_stated_tolerances_when_tighter(quad_tol):
    _assert_checks_meet_stated_tolerances(quad_tol)


def test_loose_tolerance_cannot_loosen_the_checks():
    certificate = certify_bound(1, quad_tol=1.0)
    assert certificate.valid is False
    failed = {c.name for c in certificate.checks if not c.passed}
    assert {"lambda_consistency", "x_consistency"} <= failed


def test_certificate_rejects_unknown_order():
    with pytest.raises(ValueError):
        certify_bound(3)


@pytest.mark.parametrize("quad_tol", [math.nan, math.inf, 0.0, -1e-8])
def test_certificate_rejects_bad_tolerance_before_any_work(quad_tol, monkeypatch):
    def refuse(h, l):
        raise AssertionError("partition sum computed for a rejected tolerance")

    monkeypatch.setattr(moments, "joint_moment_coefficient", refuse)
    with pytest.raises(ValueError, match="quad_tol"):
        certify_bound(1, quad_tol=quad_tol)


def test_certificate_detects_corrupted_coefficient():
    column = coefficient_column(1)
    column[2] = Fraction(column[2].numerator + 1, column[2].denominator)
    certificate = certify_bound(1, coefficients=column)
    assert not certificate.valid
    failed = {c.name for c in certificate.checks if not c.passed}
    assert "data_integrity" in failed


def test_certificate_without_positive_v_skips_the_numeric_checks():
    # halving the h = 0 entry gives v_exact ~ (-0.044, 1.31, -0.021)
    column = coefficient_column(1)
    column[0] /= 2
    certificate, checks = certify_column(column)
    assert [float(v) for v in certificate.v_exact] == pytest.approx(
        [-0.04397, 1.3123, -0.02128], abs=1e-4
    )
    assert not checks["v_positive"].passed
    assert not checks["g_increasing"].passed
    for name in ("lambda_consistency", "pi_integral", "x_consistency"):
        assert not checks[name].passed
        assert checks[name].residual == math.inf
    assert not certificate.valid


def test_certificate_detects_corrupted_anchor_n2():
    column = coefficient_column(2)
    column[0] = Fraction(column[0].numerator + 1, column[0].denominator)
    certificate = certify_bound(2, coefficients=column)
    assert not certificate.valid


def test_certificate_determinism():
    first = json.dumps(certify_bound(1).to_json_dict(), sort_keys=True)
    second = json.dumps(certify_bound(1).to_json_dict(), sort_keys=True)
    assert first == second


def test_certificate_serialization_is_exact():
    certificate = certify_bound(2)
    payload = certificate.to_json_dict()
    assert Fraction(payload["x_exact"]) == certificate.x_exact
    assert Fraction(payload["lambda_exact"]) == certificate.lam_exact
    assert payload["valid"] is True
    assert {c["name"] for c in payload["checks"]} == {c.name for c in certificate.checks}


# ------------------------------------------------------- sensitivity check


def residue_cases():
    for n in (1, 2):
        params = derived_params_for(n).params
        perturbed = (params.v[0] * 1.01,) + params.v[1:]
        for v in (params.v, perturbed):
            for lam in (params.lam / 2, params.lam, 2 * params.lam):
                yield n, v, lam


@pytest.mark.parametrize("n, v, lam", list(residue_cases()))
def test_residue_residual_matches_quadrature(n, v, lam):
    coeffs = bounds._weight_coeffs(v, 4)
    by_residues = bounds._residue_residual(coeffs, lam, 4)
    assert by_residues == pytest.approx(_log_residual_from_coeffs(coeffs, lam, 4, 1e-10), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    scales=st.tuples(*[st.floats(0.7, 1.3)] * 3),
    log_lam=st.floats(-3.0, 3.0),
)
def test_residue_residual_matches_quadrature_near_the_derived_point(scales, log_lam):
    v = tuple(x * s for x, s in zip(derived_params_for(1).params.v, scales))
    coeffs, lam = bounds._weight_coeffs(v, 4), 10.0**log_lam
    by_residues = bounds._residue_residual(coeffs, lam, 4)
    assert by_residues == pytest.approx(_log_residual_from_coeffs(coeffs, lam, 4, 1e-10), abs=1e-10)


def test_residue_residual_rejects_what_it_cannot_evaluate():
    coeffs = bounds._weight_coeffs(derived_params_for(1).params.v, 4)
    with pytest.raises(ValueError):
        bounds._residue_residual(coeffs, 0.0, 4)
    with pytest.raises(ValueError):
        bounds._residue_residual([-coeffs[0]] + coeffs[1:], 1.0, 4)


def test_root_finder_raises_at_its_iteration_cap():
    coeffs = [1.0] + bounds._weight_coeffs(derived_params_for(1).params.v, 4)
    roots = bounds._polynomial_roots(coeffs)
    assert all(abs(sum(c * y**k for k, c in enumerate(coeffs))) < 1e-12 for y in roots)
    with pytest.raises(ArithmeticError, match="did not converge"):
        bounds._polynomial_roots(coeffs, max_iter=1)


# float.hex of perturbed_x_values(n, rel), recorded when lambda was still
# solved by quadrature
PERTURBED_X_HEX = {
    (1, 0.01): ["0x1.f730140800000p+1", "0x1.f730151800000p+1", "0x1.f730549800000p+1",
                "0x1.f73054b800000p+1", "0x1.f73051b800000p+1", "0x1.f73051e800000p+1"],
    (1, 0.1): ["0x1.f710799800000p+1", "0x1.f714a29800000p+1", "0x1.f72b824800000p+1",
               "0x1.f72be1e800000p+1", "0x1.f72a559800000p+1", "0x1.f72ad51800000p+1"],
    (2, 0.01): ["0x1.7952473800000p+1", "0x1.7952481800000p+1", "0x1.795278f800000p+1",
                "0x1.7952791800000p+1", "0x1.795277d800000p+1", "0x1.795277e800000p+1"],
    (2, 0.1): ["0x1.793a2bd800000p+1", "0x1.793d5f5800000p+1", "0x1.794f055800000p+1",
               "0x1.794f47b800000p+1", "0x1.794e8b4800000p+1", "0x1.794ed99800000p+1"],
}


@pytest.mark.parametrize("n, rel", sorted(PERTURBED_X_HEX))
def test_perturbed_x_values_are_bit_identical_to_the_quadrature_solve(n, rel):
    assert [x.hex() for x in bounds.perturbed_x_values(n, rel)] == PERTURBED_X_HEX[n, rel]


def test_only_the_certificate_uses_quadrature(monkeypatch):
    quadrature = bounds.integrate_unit_interval
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(bounds, "integrate_unit_interval", refuse)
    for n in (1, 2):
        bounds.perturbed_x_values(n)

    def counting(*args, **kwargs):
        calls.append(None)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(bounds, "integrate_unit_interval", counting)
    assert certify_bound(1).valid
    assert calls


@pytest.mark.parametrize("rel", [math.nan, math.inf, 0.0, -0.5, 1.0, 1.5])
def test_perturbed_x_values_rejects_bad_rel_before_any_work(rel, monkeypatch):
    monkeypatch.setattr(bounds, "_exact_prelude", None)
    with pytest.raises(ValueError, match="rel must be finite and in"):
        bounds.perturbed_x_values(1, rel=rel)


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_perturbed_x_values_rejects_bad_tolerance_before_any_work(bad, monkeypatch):
    monkeypatch.setattr(bounds, "_exact_prelude", None)
    with pytest.raises(ValueError, match="quad_tol must be finite and positive"):
        bounds.perturbed_x_values(1, quad_tol=bad)
