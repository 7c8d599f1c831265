"""Quadrature engine, lambda equation, closed-form optimizer, certificates."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import roots_legendre

from oracles import (
    half_line_log_residual,
    half_line_moments,
    hall_ratio,
    poly_divmod,
    poly_inverse_mod,
    poly_mul,
    poly_sub,
    residue_residual,
    solve_lambda_by_quadrature,
)
from zgap import bounds, cli, moments
from zgap.bounds import (
    THRESHOLDS,
    QuadratureError,
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
from zgap.moments import coefficient_column

RATIO_INPUTS = {
    1: tuple(hall_ratio(h, 1) for h in (1, 2, 3, 4)),
    2: tuple(hall_ratio(h, 2) for h in (1, 2, 3, 4)),
}
# five-decimal reference prints for (v1, v2, v3, lambda)
REFERENCE_PARAMS = {
    1: (0.95297, 1.01903, 1.07681, 0.98492),
    2: (0.86987, 0.87121, 0.89954, 0.89144),
}


def lambda_equation_residual(v, lam, quad_tol=bounds.DEFAULT_QUAD_TOL):
    """The log-form lambda equation's residual at (v, lam)."""
    return _log_residual_from_coeffs(bounds._weight_coeffs(v), lam, quad_tol)


def derived_params_for(n):
    a, b, c, d = RATIO_INPUTS[n]
    return derive_params(a, b, c, d, closed_form_x(a, b, c, d))


def prelude(column):
    """`bounds._exact_prelude` of the coefficient column b[0..4]."""
    return bounds._exact_prelude(bounds._column_key(column))


def derived_floats_for(n):
    """(v, lam) as floats of the exact derived parameters for order n."""
    derived = derived_params_for(n)
    return tuple(float(t) for t in derived.v_exact), float(derived.lam_exact)


# ---------------------------------------------------------------- quadrature


def test_kronrod_rule_integrates_polynomials_exactly():
    assert len(_GAUSS_KRONROD_15) == 15
    for k in range(24):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(sum(wk * x**k for x, wk, _ in _GAUSS_KRONROD_15) - exact) < 1e-14


def test_kronrod_table_lists_minus_x_before_plus_x_and_the_centre_last():
    # the order in which `_panel_estimates` evaluates and accumulates
    minus, plus = _GAUSS_KRONROD_15[:-1:2], _GAUSS_KRONROD_15[1:-1:2]
    assert [(-x, wk, wg) for x, wk, wg in minus] == list(plus)
    assert all(x > y > 0.0 for (x, _, _), (y, _, _) in zip(plus, plus[1:]))
    assert _GAUSS_KRONROD_15[-1][0] == 0.0


def panel_estimates_by_pairs(f, a, b):
    """`bounds._panel_estimates` as written over the nonnegative nodes:
    f(mid - half*x) then f(mid + half*x) per node x > 0, f(mid) last."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    kronrod = gauss = magnitude = 0.0
    for x, wk, wg in _GAUSS_KRONROD_15[1::2] + _GAUSS_KRONROD_15[-1:]:
        for value in (f(mid - half * x), f(mid + half * x)) if x else (f(mid),):
            kronrod += wk * value
            gauss += wg * value
            magnitude += wk * abs(value)
    return half * kronrod, half * abs(kronrod - gauss), half * magnitude


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(1e-12, 1.0),
    st.sampled_from([lambda s: 1.0 / (1.0 + s * s), lambda s: math.log1p(s) / s, math.exp]),
)
def test_panel_estimates_are_bit_identical_to_the_pairwise_form(a, width, f):
    b = min(a + width, 1.0)
    assert bounds._panel_estimates(f, a, b) == panel_estimates_by_pairs(f, a, b)


def test_gauss_subset_is_the_seven_point_legendre_rule():
    gauss = sorted((x, wg) for x, _, wg in _GAUSS_KRONROD_15 if wg)
    nodes, weights = roots_legendre(7)
    assert len(gauss) == 7
    for (x, wg), node, weight in zip(gauss, nodes, weights):
        assert abs(x - node) < 1e-15
        assert abs(wg - weight) < 1e-15


def test_a_panel_whose_error_estimate_equals_the_threshold_is_accepted():
    # the panel test is err <= threshold: at tol equal to the largest of
    # the four initial panels' error estimates, that panel is accepted as
    # is, and one float spacing lower it is bisected once
    evaluations = []

    def f(s):
        evaluations.append(s)
        return s**20

    tol = max(bounds._panel_estimates(f, i / 4, (i + 1) / 4)[1] for i in range(4))
    assert 1e-15 < tol < bounds.PANEL_TOL  # above the roundoff floor of every panel
    for threshold, count in ((tol, 60), (math.nextafter(tol, 0.0), 90)):
        evaluations.clear()
        integrate_unit_interval(f, threshold)
        assert len(evaluations) == count


def test_the_panel_budget_is_exact(monkeypatch):
    # s**20 at the default tolerance takes exactly its 4 initial panels: a
    # budget of 4 is enough, and one of 3 raises with the sum of the error
    # estimates accepted before it
    def f(s):
        return s**20

    errors = [bounds._panel_estimates(f, i / 4, (i + 1) / 4)[1] for i in range(4)]
    monkeypatch.setattr(bounds, "_PANEL_BUDGET", 4)
    integrate_unit_interval(f)
    monkeypatch.setattr(bounds, "_PANEL_BUDGET", 3)
    with pytest.raises(QuadratureError, match="within 3 panels") as caught:
        integrate_unit_interval(f)
    assert caught.value.achieved_error == errors[0] + errors[1] + errors[2] > 0.0


def test_the_depth_limit_counts_the_bisections_of_each_half(monkeypatch):
    # a pole just right of s = 1 takes two bisections of the last initial
    # panel, each time of its right half: depth limit 2 is enough, and at
    # limit 1 that right half, at depth 1, is the panel that raises
    def f(s):
        return 1.0 / (1.1 - s)

    monkeypatch.setattr(bounds, "_MAX_PANEL_DEPTH", 2)
    integrate_unit_interval(f)
    monkeypatch.setattr(bounds, "_MAX_PANEL_DEPTH", 1)
    with pytest.raises(QuadratureError, match=r"panel \(0\.875, 1\.0\) unresolved at depth 1 "):
        integrate_unit_interval(f)


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


# ------------------------------------------------------------ lambda equation


def test_lambda_residual_at_reference_parameters():
    for n in (1, 2):
        v1, v2, v3, lam = REFERENCE_PARAMS[n]
        assert abs(lambda_equation_residual((v1, v2, v3), lam)) < 1e-3


def test_lambda_residual_vanishes_at_derived_parameters():
    v, lam = derived_floats_for(1)
    assert abs(lambda_equation_residual(v, lam, 1e-10)) < 1e-8


def test_lambda_residual_large_lambda_limit():
    v, _ = derived_floats_for(1)
    residual = lambda_equation_residual(v, 1e12, 1e-8)
    assert residual > -4 * math.pi
    assert abs(residual + 4 * math.pi) < 0.5


def test_lambda_residual_decreasing_in_lambda():
    v, _ = derived_floats_for(1)
    values = [lambda_equation_residual(v, lam) for lam in (0.5, 1.0, 2.0)]
    assert values[0] > values[1] > values[2]


def test_lambda_residual_requires_positive_lambda():
    v, _ = derived_floats_for(1)
    # match the guard: QuadratureError is a ValueError too
    with pytest.raises(ValueError, match="the log form needs lambda > 0"):
        lambda_equation_residual(v, -1.0)


def count_integrand_evaluations(monkeypatch):
    """Wrap `bounds.integrate_unit_interval`; the returned list gets one
    entry per quadrature, its number of integrand evaluations."""
    quadrature = bounds.integrate_unit_interval
    counts = []

    def counting(f, *args, **kwargs):
        counts.append(0)

        def counted(s):
            counts[-1] += 1
            return f(s)

        return quadrature(counted, *args, **kwargs)

    monkeypatch.setattr(bounds, "integrate_unit_interval", counting)
    return counts


@pytest.mark.parametrize("shift", [-1e-4, 0.0, 1e-4])
@pytest.mark.parametrize("n", [1, 2])
def test_log_residual_matches_the_unsplit_half_line_integral(n, shift):
    v, lam = derived_floats_for(n)
    coeffs = bounds._weight_coeffs(v)
    assert _log_residual_from_coeffs(coeffs, lam + shift, 1e-8) == pytest.approx(
        half_line_log_residual(coeffs, lam + shift, 1e-8), abs=1e-12)


@pytest.mark.parametrize("coeffs", [[4.0, 6.0, 4.0, 0.0], [4.0, 0.0, 0.0, 0.0], [0.0] * 4])
def test_log_residual_takes_the_degree_from_the_last_nonzero_coefficient(coeffs, monkeypatch):
    # d = 3, 1 and 0 < l = 4: the tail's exact term is 2d.  Taking d = l
    # would leave a log singularity at s = 0 that costs over 1000
    # evaluations; only the steep head at lambda = 0.1 is bisected here
    expected = [half_line_log_residual(coeffs, lam, 1e-8) for lam in (0.1, 1.0, 10.0)]
    counts = count_integrand_evaluations(monkeypatch)
    for lam, value in zip((0.1, 1.0, 10.0), expected):
        assert _log_residual_from_coeffs(coeffs, lam, 1e-8) == pytest.approx(value, abs=1e-12)
    assert counts[1:] == [15 * 4] * 2 and counts[0] <= 15 * 10


# v scaled from a certificate's and lambda spread over twelve decades
SCALED_DRAWS = dict(
    n=st.sampled_from((1, 2)),
    scales=st.tuples(*[st.floats(0.01, 2.0)] * 3),
    log_lam=st.floats(-6.0, 6.0),
)


@settings(max_examples=200, deadline=None)
@given(**SCALED_DRAWS)
def test_log_residual_matches_the_residue_residual(n, scales, log_lam):
    v = tuple(x * s for x, s in zip(derived_floats_for(n)[0], scales))
    lam = 10.0**log_lam
    expected = residue_residual(v, lam)
    assert abs(lambda_equation_residual(v, lam) - expected) <= 2e-14 * max(1.0, abs(expected))


@settings(max_examples=200, deadline=None)
@given(**SCALED_DRAWS)
def test_log_residual_is_l_times_the_rational_form_deviation(n, scales, log_lam):
    # by parts, with C(l-1, h-1) = (h/l) C(l, h), the log residual is l = 4
    # times the rational deviation at every lambda, not only near the root
    v = tuple(x * s for x, s in zip(derived_floats_for(n)[0], scales))
    lam = 10.0**log_lam
    r = lambda_equation_residual(v, lam)
    assert abs(r - 4 * rational_form_deviation(v, lam)) <= 1e-13 * max(1.0, abs(r))


@pytest.mark.parametrize("quad_tol", [1e-8, 1e-13, 1e-17])
def test_log_form_quadrature_accepts_its_four_initial_panels(quad_tol, monkeypatch):
    # split at u = 1, the log integrand with 2d*log(u)/u**2 taken out and
    # the rational one are both smooth on [0, 1], so no panel is bisected
    counts = count_integrand_evaluations(monkeypatch)
    for n in (1, 2):
        v, lam = derived_floats_for(n)
        lambda_equation_residual(v, lam, quad_tol)
        rational_form_deviation(v, lam, quad_tol=quad_tol)
    assert counts == [15 * 4] * 4


@pytest.mark.parametrize("n", [1, 2])
def test_certificate_spends_at_most_300_integrand_evaluations(n, monkeypatch):
    # four quadratures of four panels each
    counts = count_integrand_evaluations(monkeypatch)
    assert certify_bound(n).valid
    assert sum(counts) == 4 * 15 * 4


@pytest.mark.parametrize("n", [1, 2])
def test_solve_lambda_matches_reference(n):
    # the factor rule and the quadrature bisection both land on the print
    v1, v2, v3, lam = REFERENCE_PARAMS[n]
    for solver in (solve_lambda, solve_lambda_by_quadrature):
        assert abs(solver((v1, v2, v3), quad_tol=1e-6) - lam) < 1e-4


def test_solve_lambda_bracket_failure():
    # weight polynomial so large that lambda would have to leave the bracket
    with pytest.raises(ValueError, match="no sign change"):
        solve_lambda((1e12, 1e12, 1e12), quad_tol=1e-4)


@pytest.mark.parametrize(
    "root, first_evaluations",
    [(1.0, [1.0]), (8.0, [1.0, 8.0, 4.5]), (0.125, [1.0, 0.125, 0.5625]),
     (4.5, [1.0, 8.0, 4.5, 2.75])],
)
def test_root_of_decreasing_at_exact_zeros(root, first_evaluations):
    # the residual root - lambda is exact at these dyadic points: a zero at
    # lambda = 1 is returned as is, a zero at 8**k ends the bracket search
    # there, and a zero at a midpoint keeps the lower half
    seen = []

    def residual(lam):
        seen.append(lam)
        return root - lam

    assert abs(bounds._root_of_decreasing(residual, 1e-9) - root) <= 1e-9
    assert seen[: len(first_evaluations)] == first_evaluations
    assert root != 1.0 or seen == [1.0]


@pytest.mark.parametrize(
    "sign, message, last",
    [(1.0, r"\(1, 1e6\]", 8.0**6), (-1.0, r"\[1e-6, 1\)", 8.0**-6)],
)
def test_root_of_decreasing_searches_factors_of_8_within_1e6(sign, message, last):
    seen = []

    def residual(lam):
        seen.append(lam)
        return sign

    with pytest.raises(ValueError, match="no sign change for lambda in " + message):
        bounds._root_of_decreasing(residual, 1e-9)
    assert seen[-1] == last


@pytest.mark.parametrize("v", [(0.95297, 1.01903, 1.07681), (8.0, 8.0, 8.0)])
def test_solve_lambda_evaluates_no_lambda_twice(v, monkeypatch):
    # the first v has its root below lambda = 1, the second above it
    seen = []
    residual = bounds._factor_residual

    def recording(v, lam):
        seen.append(lam)
        return residual(v, lam)

    monkeypatch.setattr(bounds, "_factor_residual", recording)
    solve_lambda(v)
    assert seen[0] == 1.0
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("v", [(0.9, 1.0), (0.9, 1.0, 1.1, 1.0)], ids=["two", "four"])
def test_solve_lambda_rejects_v_without_three_entries(v, monkeypatch):
    monkeypatch.setattr(bounds, "_factor_residual", None)
    with pytest.raises(ValueError, match=r"needs v = \(v1, v2, v3\), got \d entries"):
        solve_lambda(v)


BAD_TOLERANCES = [math.nan, math.inf, 0.0, -1.0]


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_solve_lambda_rejects_bad_tolerances(bad):
    v = REFERENCE_PARAMS[1][:3]
    with pytest.raises(ValueError, match="quad_tol must be finite and positive"):
        solve_lambda(v, quad_tol=bad)


# ------------------------------------------------------------- rational form


def test_rational_form_beta_integral_oracle():
    # with v1 = v2 = v3 = 0 the equation reduces to
    #   int u^6/(u^8 + lam) du = pi  over the real line, whose closed form
    #   (beta integral) gives lam = (4 sin(pi/8))**-8
    lam = (4 * math.sin(math.pi / 8)) ** -8
    assert abs(rational_form_deviation((0.0, 0.0, 0.0), lam, quad_tol=1e-10)) < 1e-9


# ------------------------------------------------------- closed form and (81)


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


def test_derive_params_rejects_degenerate():
    one = Fraction(1)
    with pytest.raises(ValueError):
        derive_params(one, one, one, one, one)
    a, b, c, d = RATIO_INPUTS[1]
    with pytest.raises(ValueError):
        derive_params(a, b, c, d, Fraction(-1))
    for zero_c_or_d in ((a, b, 0, d), (a, b, c, 0)):
        with pytest.raises(ValueError, match="need c != 0 and d != 0"):
            derive_params(*zero_c_or_d, one)
    with pytest.raises(ValueError, match="x must be positive, got 0$"):
        derive_params(a, b, c, d, 0)
    for tie in ((a, b, b, d), (a, b, c, c)):  # b = c alone, then c = d alone
        with pytest.raises(ValueError, match="need b != c and c != d"):
            derive_params(*tie, one)


MAGNITUDES = st.one_of(
    st.integers(1, 3),
    st.builds(Fraction, st.integers(1, 2**120), st.integers(1, 2**120)),
)


@st.composite
def signed_columns(draw):
    """A column b[0..4] of signed rationals, at times with one zero entry,
    and at times with b[3] or b[4] chosen so that b = c or c = d, where
    A(h) = (2h-1)*b[h-1] / (4*|2h-3|*b[h])."""
    column = {h: draw(MAGNITUDES) * draw(st.sampled_from([1, -1])) for h in range(5)}
    zero = draw(st.sampled_from([None] * 6 + [0, 1, 2, 3, 4]))
    if zero is not None:
        column[zero] = Fraction(0)
    tie = draw(st.sampled_from([None, None, None, "b = c", "c = d"]))
    if tie == "b = c" and column[1] and column[2]:
        column[3] = Fraction(5, 9) * column[2] ** 2 / column[1]
    elif tie == "c = d" and column[2] and column[3]:
        column[4] = Fraction(21, 25) * column[3] ** 2 / column[2]
    return {h: Fraction(t) for h, t in column.items()}


@settings(max_examples=400, deadline=None)
@given(signed_columns())
@example({0: Fraction(1), 1: Fraction(1), 2: Fraction(1), 3: Fraction(5, 9), 4: Fraction(7)})
@example({0: Fraction(1), 1: Fraction(2), 2: Fraction(1), 3: Fraction(0), 4: Fraction(1)})
@example({h: Fraction(1) for h in range(5)})
@example(coefficient_column(1))
@example(coefficient_column(2))
def test_exact_prelude_of_signed_columns(b):
    # what the prelude must satisfy, not its formulas again: a zero b[h]
    # divides by zero, the ties that `signed_columns` draws are refused, and
    # otherwise B is the column scaled to B(4) = 1 by powers of 4, each A(h)
    # steps from B(h) to B(h-1), and the derived parameters satisfy (*)
    if any(b[h] == 0 for h in range(1, 5)):
        with pytest.raises(ZeroDivisionError):
            prelude(b)
        return
    if 9 * b[1] * b[3] == 5 * b[2] * b[2] or 25 * b[2] * b[4] == 21 * b[3] * b[3]:
        with pytest.raises(ValueError, match="need b != c and c != d"):
            prelude(b)
        return
    try:
        capB, inputs, x, derived = prelude(b)
    except ValueError as error:
        assert str(error).startswith("x must be positive, got ")
        assert Fraction(str(error).rpartition(" ")[2]) <= 0
        return
    assert capB[4] == 1
    assert all(capB[h] * 4 ** (4 - h) * b[4] == b[h] for h in range(5))
    assert all(inputs[h - 1] * abs(2 * h - 3) * capB[h] == abs(2 * h - 1) * capB[h - 1]
               for h in range(1, 5))
    assert x > 0
    assert all(r == 0 for r in factorization_residuals(derived))
    assert type(derived) is bounds.DerivedParams
    assert (type(capB), type(inputs), type(derived.v_exact), type(derived.sigma)) == (tuple,) * 4
    assert (len(capB), len(inputs)) == (5, 4)
    assert all(type(t) is Fraction for t in (*capB, *inputs, x, *derived.v_exact,
                                             derived.lam_exact, *derived.sigma))


@pytest.mark.parametrize("n, minors", [(1, (20.36447, 64.61992)), (2, (18.35513, 55.14009))])
def test_derived_factor_is_hurwitz_with_s3_four_times_s4(n, minors):
    # the premise of the factor rule: F = t**4 + s1 t**3 + s2 t**2 + s3 t + s4
    # is Hurwitz (Routh-Hurwitz, exactly) and solves the lambda equation,
    # s3 = 4 s4
    s1, s2, s3, s4 = derived_params_for(n).sigma
    assert s3 == 4 * s4
    assert min(s1, s2, s3, s4) > 0
    exact = (s1 * s2 - s3, s1 * s2 * s3 - s3 * s3 - s1 * s1 * s4)
    assert [float(m) for m in exact] == pytest.approx(minors, abs=1e-5)


# ------------------------------------------------------------------ root of X


def test_solve_x_one_term_algebra():
    # v = (0,0,0), ratios all 1, lambda = 1: X^l = 2l-1
    x = solve_x((0.0, 0.0, 0.0), 1.0, {h: 1 for h in range(5)}, tol=1e-10)
    assert abs(x - 7 ** 0.25) < 1e-9


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_solve_x_rejects_bad_tolerances(bad):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        solve_x((0.0, 0.0, 0.0), 1.0, {h: 1 for h in range(5)}, tol=bad)


def test_solvers_stop_at_float_resolution():
    # a tolerance below the float spacing at the root cannot be met; the
    # bisection must still stop, at the root it finds for a coarser one
    probe = (
        "from zgap.bounds import solve_lambda, solve_x\n"
        "for tol in (1e-12, 1e-17):\n"
        "    print(repr(solve_lambda((0.95297, 1.01903, 1.07681), quad_tol=tol)),\n"
        "          repr(solve_x((0.0, 0.0, 0.0), 1.0, dict.fromkeys(range(5), 1), tol=tol)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60
    )
    coarse, fine = ([float(x) for x in line.split()] for line in result.stdout.splitlines())
    assert all(abs(a - b) < 1e-12 for a, b in zip(coarse, fine))


def test_solve_x_input_validation():
    with pytest.raises(ValueError):
        solve_x((-1.0, 0.0, 0.0), 1.0, {h: 1 for h in range(5)})
    for lam in (-1.0, 0.0):
        with pytest.raises(ValueError):
            solve_x((0.0, 0.0, 0.0), lam, {h: 1 for h in range(5)})
    with pytest.raises(ValueError):
        solve_x((0.0, 0.0, 0.0), 1.0, {h: 0 for h in range(5)})


# --------------------------------------------------------------- certificates


def _assert_checks_meet_stated_tolerances(quad_tol):
    certificate = certify_bound(1, quad_tol=quad_tol)
    assert certificate.valid
    by_name = {c.name: c.residual for c in certificate.checks}
    assert by_name["lambda_consistency"] < 1e-4
    assert abs(by_name["pi_integral"]) < 1e-6
    assert by_name["x_consistency"] < 1e-7


@pytest.mark.parametrize("quad_tol", [1e-10, 1e-12, 1e-13])
def test_certificate_checks_meet_stated_tolerances_when_tighter(quad_tol):
    _assert_checks_meet_stated_tolerances(quad_tol)


def check_row(certificate, name):
    return next(c for c in certificate.checks if c.name == name)


def move_lambda(monkeypatch, move):
    """Make `bounds.derive_params` return lam_exact replaced by
    move(lam_exact), everything else unchanged."""
    derive = bounds.derive_params

    def moved(*args):
        derived = derive(*args)
        return derived._replace(lam_exact=move(derived.lam_exact))

    monkeypatch.setattr(bounds, "derive_params", moved)


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("quad_tol", [1e-13, 1e-8, 1.0])
def test_lambda_outside_its_window_fails(quad_tol, sign, monkeypatch):
    # the window is lambda +- delta; moved by 2 delta, the root lies outside
    # it and the secant step reports about that distance
    delta = 1e4 * min(quad_tol, bounds.DEFAULT_QUAD_TOL)
    move_lambda(monkeypatch, lambda lam: lam + sign * 2 * Fraction(delta))
    row = check_row(certify_bound(1, quad_tol=quad_tol), "lambda_consistency")
    assert not row.passed
    assert row.residual == pytest.approx(2 * delta, rel=1e-2)


# at t = 2**-30, 10*t is a multiple of the float spacing near X, so an X
# gap can sit exactly on its row's limit
EDGE_TOL = 2.0**-30


def test_pi_integral_row_holds_the_deviation_below_1e2_t(monkeypatch):
    limit = 1e2 * EDGE_TOL
    for deviation, passed in ((limit, False), (-limit, False), (math.nextafter(limit, 0.0), True)):
        monkeypatch.setattr(bounds, "rational_form_deviation", lambda *_, **__: deviation)
        row = check_row(certify_bound(1, quad_tol=EDGE_TOL), "pi_integral")
        assert (row.passed, row.residual) == (passed, deviation)


def test_x_consistency_row_holds_the_gap_below_10_t(monkeypatch):
    x = float(certify_bound(1).x_exact)
    limit = 10 * EDGE_TOL
    assert (x + limit) - x == limit
    for root, passed in ((x + limit, False), (x - limit, False),
                         (math.nextafter(x + limit, 0.0), True)):
        monkeypatch.setattr(bounds, "solve_x", lambda *_, **__: root)
        row = check_row(certify_bound(1, quad_tol=EDGE_TOL), "x_consistency")
        assert (row.passed, row.residual) == (passed, abs(root - x))


def test_lambda_window_reaching_zero_fails_without_raising(monkeypatch, capsys):
    # lambda - delta <= 0 is no valid lambda (at lambda = delta the log form
    # would raise at 0): the row fails with residual inf, and the command
    # exits 1 (a check failed), not 2
    delta = 1e4 * bounds.DEFAULT_QUAD_TOL
    for share in (Fraction(1, 2), Fraction(1)):
        bounds._exact_prelude.cache_clear()  # derive each moved lambda afresh
        with monkeypatch.context() as patch:
            move_lambda(patch, lambda lam: share * Fraction(delta))
            row = check_row(certify_bound(1), "lambda_consistency")
            assert not row.passed
            assert row.residual == math.inf
            assert cli.main(["bounds", "--n", "1", "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {"name": "lambda_consistency", "passed": False, "residual": "inf"} in checks


@pytest.mark.parametrize(
    "below, at, above, gap",
    [(1.0, 0.5, 1.0, math.inf), (0.0, -0.5, -1.0, 0.5), (1.0, 0.5, 0.0, 0.5)],
    ids=["flat", "zero-below", "zero-above"],
)
def test_lambda_row_needs_a_strict_sign_change_and_a_slope(below, at, above, gap, monkeypatch):
    # the residuals at lambda - delta, lambda and lambda + delta: a flat
    # residual has no secant step, and a zero at an edge proves no root
    # strictly inside the window
    residuals = iter((below, at, above))
    monkeypatch.setattr(bounds, "_log_residual_from_coeffs", lambda *_: next(residuals))
    row = bounds._lambda_bracket(COEFFS, 1.0, 0.5, 1e-8)
    assert (row.passed, row.residual) == (False, gap)


def test_certificate_rejects_unknown_order():
    with pytest.raises(ValueError):
        certify_bound(3)


@pytest.mark.parametrize("quad_tol", [math.nan, math.inf, 0.0, -1e-8])
def test_certificate_rejects_bad_tolerance_before_any_work(quad_tol, monkeypatch):
    def refuse(pair, l):
        raise AssertionError("partition sum computed for a rejected tolerance")

    monkeypatch.setattr(moments, "_column", refuse)
    with pytest.raises(ValueError, match="quad_tol must be finite and positive"):
        certify_bound(1, quad_tol=quad_tol)


@pytest.mark.parametrize("quad_tol", [1e-21, 1e-300])
def test_tolerance_below_the_resolution_of_lambda_is_rejected_before_any_quadrature(
    quad_tol, monkeypatch
):
    # lambda +- 1e4*quad_tol rounds to lambda, so no bracket can be drawn
    def refuse(*_):
        raise AssertionError("quadrature run for a tolerance lambda cannot resolve")

    monkeypatch.setattr(bounds, "integrate_unit_interval", refuse)
    for n in (1, 2):
        with pytest.raises(ValueError, match="below the resolution of lambda"):
            certify_bound(n, quad_tol=quad_tol)


@pytest.mark.parametrize("quad_tol", [1e-18, 1e-20, math.ulp(math.pi) / 100])
def test_tolerance_below_the_resolution_of_pi_is_rejected_before_any_quadrature(
    quad_tol, monkeypatch
):
    # lambda +- 1e4*quad_tol is still a bracket, but floats near pi are
    # math.ulp(pi) apart, so with 1e2*quad_tol no wider than that,
    # pi_integral could pass only if twice the integral rounded to pi
    def refuse(*_):
        raise AssertionError("quadrature run for a tolerance pi cannot resolve")

    monkeypatch.setattr(bounds, "integrate_unit_interval", refuse)
    for n in (1, 2):
        with pytest.raises(ValueError, match="below the resolution of pi"):
            certify_bound(n, quad_tol=quad_tol)


@pytest.mark.parametrize("quad_tol", [math.nextafter(math.ulp(math.pi) / 100, 1.0), 5e-18])
def test_tolerance_just_above_the_resolution_of_pi_certifies(quad_tol):
    # from the next float up, 1e2*quad_tol is wider than one float
    # spacing, and the integral lands within one spacing of pi
    for n in (1, 2):
        certificate = certify_bound(n, quad_tol=quad_tol)
        assert certificate.valid
        pi_row = check_row(certificate, "pi_integral")
        assert abs(pi_row.residual) <= math.ulp(math.pi)


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


def column_with_x(n, x):
    """Reference column n with b[1..4] kept and b[0] chosen so that the
    closed-form X is exactly `x`: X is linear in a = B(0)/B(1) =
    b[0]/(4 b[1]), the only input that b[0] moves."""
    column = coefficient_column(n)
    _, (_, b, c, d), _, _ = prelude(column)
    x0, x1 = closed_form_x(0, b, c, d), closed_form_x(1, b, c, d)
    column[0] = 4 * column[1] * (x - x0) / (x1 - x0)
    assert prelude(column)[2] == x
    return column


def test_bound_exactly_at_the_threshold_fails(monkeypatch):
    # the claim is sqrt(X) > 1.98, strictly.  The moved column is no longer
    # the reference, so its data_integrity row is passed by hand: the
    # threshold row alone must then void the certificate
    passed = bounds.CheckResult("data_integrity", True, 0.0)
    monkeypatch.setattr(bounds, "_integrity_checks", lambda *_: passed)
    certificate, checks = certify_column(column_with_x(1, THRESHOLDS[1] ** 2))
    assert certificate.x_exact == Fraction(9801, 2500)
    assert checks["v_positive"].passed
    assert not checks["bound_above_threshold"].passed
    assert checks["bound_above_threshold"].residual == 0.0
    assert [c.name for c in certificate.checks if not c.passed] == ["bound_above_threshold"]
    assert not certificate.valid


def test_a_zero_v_fails_v_positive_but_keeps_g_increasing():
    # v3 = (s1**2 - 2 s2)/4 with s1 = tau1 X, s2 = tau2 X is exactly 0 at
    # X = 2 tau2/tau1**2; the taus do not depend on a, and X = 1 gives
    # sigma = (tau1, tau2, ...)
    _, (a, b, c, d), _, _ = prelude(coefficient_column(2))
    tau1, tau2, _, _ = derive_params(a, b, c, d, 1).sigma
    certificate = certify_bound(2, coefficients=column_with_x(2, 2 * tau2 / tau1**2))
    checks = {c.name: c for c in certificate.checks}
    v1, v2, v3 = certificate.v_exact
    assert v3 == 0
    assert (float(v1), float(v2)) == pytest.approx((0.00687, 1.17966), abs=1e-5)
    assert not checks["v_positive"].passed
    assert checks["v_positive"].residual == 0.0
    assert checks["g_increasing"].passed
    assert not certificate.valid


def test_certificate_detects_corrupted_anchor_n2():
    column = coefficient_column(2)
    column[0] = Fraction(column[0].numerator + 1, column[0].denominator)
    certificate = certify_bound(2, coefficients=column)
    assert not certificate.valid


# ------------------------------------------------------ exact prelude cache


def count_derivations(monkeypatch):
    """Make `bounds.derive_params` append its X to the returned list."""
    derive = bounds.derive_params
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return derive(*args)

    monkeypatch.setattr(bounds, "derive_params", counting)
    return calls


def test_certificate_and_sensitivity_check_derive_the_prelude_once(monkeypatch):
    calls = count_derivations(monkeypatch)
    certificate = certify_bound(1)
    bounds.perturbed_x_values(1)
    assert certify_bound(1) == certificate
    assert calls == [certificate.x_exact]
    assert bounds._exact_prelude.cache_info().maxsize == len(THRESHOLDS)


def test_a_cached_prelude_does_not_leak_into_an_override(monkeypatch):
    calls = count_derivations(monkeypatch)
    reference = certify_bound(1)
    certificate, checks = certify_column(cli._corrupted(coefficient_column(1)))
    assert not checks["data_integrity"].passed
    assert not certificate.valid
    assert (certificate.b, certificate.c) != (reference.b, reference.c)
    assert calls == [reference.x_exact, certificate.x_exact]
    assert certify_bound(1) == reference
    assert len(calls) == 2


def test_an_override_equal_to_the_reference_column_certifies_as_the_default(monkeypatch):
    # the cache is keyed by the column's values, so the equal override reads
    # the reference column's prelude
    calls = count_derivations(monkeypatch)
    column = {h: Fraction(t.numerator, t.denominator) for h, t in coefficient_column(2).items()}
    assert certify_bound(2, coefficients=column) == certify_bound(2)
    assert len(calls) == 1


# ------------------------------------------------------ exact stationarity


def stationarity_residuals(capB, x, derived):
    """G_vj * L_lambda - G_lambda * L_vj for j = 1, 2, 3, exactly: zero
    exactly when dX/dv_j = 0 along the lambda equation L = 0 and the X
    equation G = 0, where

        L_vj = C(4,j) * J_{j-1},  L_lambda = -(1/lambda) * sum_h C(4,h) v_h J_{h-1},
        G_vj = 7/(2j-1) * C(4,j) * B(j) * X**j,  G_lambda = -7 * B(0),

    with v4 = 1 and every J_m / pi from `half_line_moments`; the common
    factor pi drops out."""
    moments_over_pi = half_line_moments(derived.sigma, 4)
    v = (*derived.v_exact, 1)
    l_v = [math.comb(4, j) * moments_over_pi[j - 1] for j in (1, 2, 3)]
    l_lam = -sum(
        math.comb(4, h) * v[h - 1] * moments_over_pi[h - 1] for h in range(1, 5)
    ) / derived.lam_exact
    g_v = [Fraction(7, 2 * j - 1) * math.comb(4, j) * capB[j] * x**j for j in (1, 2, 3)]
    g_lam = -7 * capB[0]
    return [g * l_lam - g_lam * lv for g, lv in zip(g_v, l_v)]


@st.composite
def scaled_reference_columns(draw):
    """Reference column 1 or 2 with each entry scaled by its own rational
    in [0.9, 1.1]."""
    column = coefficient_column(draw(st.sampled_from([1, 2])))
    return {h: t * Fraction(1000 + draw(st.integers(-100, 100)), 1000) for h, t in column.items()}


@settings(max_examples=100, deadline=None)
@given(scaled_reference_columns())
@example(coefficient_column(1))
@example(coefficient_column(2))
def test_closed_form_x_is_stationary_on_every_admissible_column(column):
    # admissible: a monotone weight (every v_h > 0) with a Hurwitz factor F
    # (every s_i > 0 and Delta3 > 0), where `half_line_moments` holds.
    # Hypothesis counts only admissible draws toward its 100 examples, and
    # about two thirds of the draws are admissible
    capB, _, x, derived = prelude(column)
    s1, s2, s3, s4 = derived.sigma
    assume(all(t > 0 for t in (*derived.v_exact, *derived.sigma)))
    assume(s1 * s2 * s3 - s3 * s3 - s1 * s1 * s4 > 0)
    assert stationarity_residuals(capB, x, derived) == [0, 0, 0]


@pytest.mark.parametrize("n", [1, 2])
def test_a_moved_x_is_not_stationary(n):
    capB, inputs, x, _ = prelude(coefficient_column(n))
    moved = x * Fraction(1001, 1000)
    residuals = stationarity_residuals(capB, moved, derive_params(*inputs, moved))
    assert all(r != 0 for r in residuals)


@pytest.mark.parametrize("n", [1, 2])
def test_half_line_moments_match_quadrature(n):
    # the Euler-Jacobi sums are the integrals the stationarity test reads
    derived = derived_params_for(n)
    v, lam = derived_floats_for(n)
    coeffs = bounds._weight_coeffs(v)
    for m, exact in enumerate(half_line_moments(derived.sigma, 4)):
        by_quadrature = integrate_half_line(
            lambda u: u ** (2 * m) / (lam + sum(c * u ** (2 * k) for k, c in enumerate(coeffs, 1))),
            1e-12,
        )
        assert float(exact) * math.pi == pytest.approx(by_quadrature, rel=1e-12)


def test_poly_inverse_mod_inverts():
    f = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(2), Fraction(1)]
    p = [Fraction(1), Fraction(5, 3), Fraction(-2)]
    product = poly_mul(p, poly_inverse_mod(p, f))
    quotient, remainder = poly_divmod(product, f)
    assert remainder == [1]
    assert poly_sub(product, poly_mul(quotient, f)) == remainder
    common = [Fraction(1), Fraction(1)]
    with pytest.raises(ValueError, match="common factor"):
        poly_inverse_mod(poly_mul(common, [Fraction(2), Fraction(1)]),
                         poly_mul(common, [Fraction(-3), Fraction(1)]))


# ------------------------------------------------------- sensitivity check


def residue_cases():
    for n in (1, 2):
        base_v, base_lam = derived_floats_for(n)
        perturbed = (base_v[0] * 1.01,) + base_v[1:]
        for v in (base_v, perturbed):
            for lam in (base_lam / 2, base_lam, 2 * base_lam):
                yield n, v, lam


def assert_factor_sign(v, lam, by_quadrature):
    """The factor rule gives the quadrature residual's sign wherever that
    residual is clear of its 1e-10 quadrature error."""
    if abs(by_quadrature) > 1e-9:
        assert (bounds._factor_residual(v, lam) > 0.0) == (by_quadrature > 0.0)


@pytest.mark.parametrize("n, v, lam", list(residue_cases()))
def test_residue_residual_matches_quadrature(n, v, lam):
    # the residue form is the identity the factor rule rests on
    by_quadrature = lambda_equation_residual(v, lam, 1e-10)
    assert residue_residual(v, lam) == pytest.approx(by_quadrature, abs=1e-10)
    assert_factor_sign(v, lam, by_quadrature)


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from((1, 2)),
    scales=st.tuples(*[st.floats(0.01, 2.0)] * 3),
    log_lam=st.floats(-3.0, 3.0),
)
def test_factor_residual_has_the_sign_of_the_quadrature_residual(n, scales, log_lam):
    # far from the derived point too, where the factor is often not Hurwitz
    v = tuple(x * s for x, s in zip(derived_floats_for(n)[0], scales))
    lam = 10.0**log_lam
    assert_factor_sign(v, lam, lambda_equation_residual(v, lam, 1e-10))


@pytest.mark.parametrize(
    "v, lam",
    [pytest.param((2.0, 1.0, 0.1), 0.1, id="no-real-s1"),
     pytest.param((2.22, 0.3, 2.86), 0.23, id="s2-negative"),
     pytest.param((2.796, 0.003, 0.003), 0.699, id="s1-s2-below-s3")],
)
def test_factor_residual_is_positive_where_no_hurwitz_factor_exists(v, lam):
    # lambda lies below the root at each of these points; without the
    # Routh-Hurwitz test, 6 v2 - (s2**2 + 2 s4 - 2 s1 s3) would read -25.6
    # and -0.92 at the last two
    assert bounds._factor_residual(v, lam) == 1.0
    assert lambda_equation_residual(v, lam, 1e-10) > 1.0


@settings(max_examples=500, deadline=None)
@given(v=st.tuples(*[st.floats(1e-3, 1e3)] * 3), lam=st.floats(1e-3, 1e3))
@example(v=(3.0, 1.0, 3.0), lam=1.0)  # s = (4, 2, 4, 1), where Delta3 is exactly 0
def test_factor_residual_is_one_wherever_the_routh_hurwitz_triple_fails(v, lam):
    # the rule tests Delta3 > 0 alone, so it must return 1.0 wherever the
    # full triple, written out here, fails
    v1, _, v3 = v
    s4 = math.sqrt(lam)
    s3 = 4.0 * s4
    s2 = 8.0 * s4 - 2.0 * v1 / s4
    q = 2.0 * s2 + 4.0 * v3
    s1 = math.sqrt(max(q, 0.0))
    if not (q > 0.0 and s2 > 0.0 and s1 * s2 > s3 and s1 * s2 * s3 > s3 * s3 + s1 * s1 * s4):
        assert bounds._factor_residual(v, lam) == 1.0


NAN = math.nan
ONES = dict.fromkeys(range(5), 1)
COEFFS = [4.0, 6.0, 4.0, 1.0]


@pytest.mark.parametrize(
    "name, args",
    [pytest.param("solve_x", ((NAN, 0.0, 0.0), 1.0, ONES), id="solve_x-v"),
     pytest.param("solve_x", ((0.0, 0.0, 0.0), NAN, ONES), id="solve_x-lambda"),
     pytest.param("solve_x", ((0.0, 0.0, 0.0), 1.0, {**ONES, 2: NAN}), id="solve_x-ratio"),
     pytest.param("_log_residual_from_coeffs", (COEFFS, NAN, 1e-8), id="log-lambda"),
     pytest.param("_log_residual_from_coeffs", ([4.0, NAN, 4.0, 1.0], 1.0, 1e-8),
                  id="log-coefficient"),
     pytest.param("_factor_residual", ((0.9, 1.0, 1.1), NAN), id="factor-lambda"),
     pytest.param("_factor_residual", ((0.9, NAN, 1.1), 1.0), id="factor-v"),
     pytest.param("_factor_residual", ((0.9, 1.0, 1.1), 0.0), id="factor-zero-lambda"),
     pytest.param("_factor_residual", ((0.9, 0.0, 1.1), 1.0), id="factor-zero-v"),
     pytest.param("_factor_residual", ((-0.9, 1.0, 1.1), 1.0), id="factor-negative-v"),
     pytest.param("solve_lambda", ((0.9, NAN, 1.1),), id="solve_lambda-v"),
     pytest.param("solve_lambda", ((0.9, 0.0, 1.1),), id="solve_lambda-zero-v"),
     pytest.param("rational_form_deviation", ((0.9, 1.0, 1.1), NAN), id="rational-lambda"),
     pytest.param("rational_form_deviation", ((NAN, 1.0, 1.1), 1.0), id="rational-v"),
     pytest.param("rational_form_deviation", ((0.9, 1.0, 1.1), -1.0),
                  id="rational-negative-lambda"),
     pytest.param("rational_form_deviation", ((0.9, 1.0, 1.1), 0.0), id="rational-zero-lambda"),
     pytest.param("_log_residual_from_coeffs", (COEFFS, 0.0, 1e-8), id="log-zero-lambda"),
     pytest.param("_factor_residual", ((0.0, 1.0, 1.1), 1.0), id="factor-zero-v1"),
     pytest.param("_factor_residual", ((0.9, 1.0, 0.0), 1.0), id="factor-zero-v3")],
)
def test_nan_input_is_rejected_before_any_quadrature_or_root_sweep(name, args, monkeypatch):
    # nan compares false with everything, so a guard written as `x <= 0`
    # lets it through (and min([1, nan]) is 1); the solvers must refuse it
    def refuse(*_):
        raise AssertionError("nan input reached a quadrature")

    monkeypatch.setattr(bounds, "integrate_unit_interval", refuse)
    with pytest.raises(ValueError):
        getattr(bounds, name)(*args)


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


def test_perturbed_x_values_regression_case():
    # a coarse quad_tol with a small rel
    xs = bounds.perturbed_x_values(2, rel=0.0195722328034246, quad_tol=3.536405280521409e-05)
    assert [x.hex() for x in xs] == [
        "0x1.7950800000000p+1", "0x1.7951800000000p+1", "0x1.7951800000000p+1",
        "0x1.7952800000000p+1", "0x1.7952800000000p+1", "0x1.7951800000000p+1",
    ]


def test_perturbed_x_values_solves_each_lambda_with_solve_lambda(monkeypatch):
    # by its module-global name, so a wrapper installed on `bounds` sees
    # every solve
    calls = []
    solve = bounds.solve_lambda

    def recording(v, **kwargs):
        calls.append(v)
        return solve(v, **kwargs)

    monkeypatch.setattr(bounds, "solve_lambda", recording)
    bounds.perturbed_x_values(1)
    assert len(calls) == 6


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
