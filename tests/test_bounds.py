"""Quadrature engine, lambda equation, closed-form optimizer, certificates."""

import json
import math
from fractions import Fraction

import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from zgap import moments
from zgap.bounds import (
    QuadratureError,
    WirtingerParams,
    certify_bound,
    closed_form_x,
    derive_params,
    factorization_residuals,
    g_decrease_witness,
    g_eval,
    g_is_increasing,
    integrate_half_line,
    integrate_unit_interval,
    lambda_equation_residual,
    rational_form_deviation,
    solve_lambda,
    solve_x,
    _GAUSS_KRONROD_15,
    _log_residual_from_coeffs,
)
from zgap.moments import coefficient_column, hall_ratio, ratio_set_from_values

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
    # both rules integrate a degree-13 polynomial exactly, so no panel is
    # bisected and doubling stops after the 4- and 8-panel rounds
    evaluations = 0

    def f(s):
        nonlocal evaluations
        evaluations += 1
        return 1.0 + s**13

    assert abs(integrate_unit_interval(f) - 15.0 / 14.0) < 1e-14
    assert evaluations == 15 * (4 + 8)


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
    with pytest.raises(QuadratureError) as exc_info:
        integrate_half_line(lambda u: 1.0 / u, 1e-8)
    assert exc_info.value.achieved_error > 0


# ----------------------------------------------------------- weight polynomial


def test_g_eval_examples():
    params = WirtingerParams(l=4, v=(1.0, 1.0, 1.0), lam=1.0)
    assert g_eval(params, 0.0) == 0.0
    # (2l-1) * sum C(4,h) u^(2h) at u=1: 7 * (4+6+4+1)
    assert g_eval(params, 1.0) == pytest.approx(7 * 15)


def test_g_monotone_for_derived_parameters():
    params = derived_params_for(1).params
    assert all(v > 0 for v in params.v)
    assert g_is_increasing(params)


def test_g_monotone_check_finds_witness():
    params = WirtingerParams(l=4, v=(-5.0, 1.0, 1.0), lam=1.0)
    assert not g_is_increasing(params)
    witness = g_decrease_witness(params)
    assert witness is not None
    # the polynomial really does decrease locally at the witness
    assert g_eval(params, witness * 1.000001) < g_eval(params, witness)


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
        g = g_eval(params, u)
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
    ratios = ratio_set_from_values(coefficient_column(n), n=n)
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


def test_certificate_checks_meet_stated_tolerances():
    certificate = certify_bound(1, quad_tol=1e-8)
    by_name = {c.name: c.residual for c in certificate.checks}
    assert by_name["lambda_consistency"] < 1e-4
    assert abs(by_name["pi_integral"]) < 1e-6
    assert by_name["x_consistency"] < 1e-7


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
