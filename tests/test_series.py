"""Bessel series, determinant expansions, and the unitary-average identity."""

import json
import math
import random
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from scipy.integrate import quad
from scipy.special import iv

from oracles import (
    WeightedSeries,
    bessel_grid_determinant,
    cue_moment_coefficient,
    laplace_determinant,
    partition_sum_orders,
    series_derivative,
    series_product,
)
from zgap import series
from zgap.cli import main
from zgap.series import (
    HalfPowerSeries,
    SeriesMatrix,
    check_hankel_identity,
    hankel_determinant,
    toeplitz_determinant,
    unitary_average,
)

HALF = Fraction(1, 2)


def bessel(order, terms):
    """I_order(2*sqrt(x)), order >= 0, as a series with offset order/2,
    through x**(order/2 + terms - 1)."""
    coeffs = (Fraction(1, factorial(m) * factorial(m + order)) for m in range(terms))
    return HalfPowerSeries(Fraction(order, 2), tuple(coeffs))


def test_bessel_series_examples():
    # a 1x1 grid is its corner entry g_n(x) = sum_m x**m / (m! (m+n)!):
    # g_0 for Toeplitz, g_1 for Hankel
    assert SeriesMatrix("toeplitz", 1, 2).determinant() == (1, 1, Fraction(1, 4))
    assert SeriesMatrix("hankel", 1, 1).determinant() == (1, HALF)
    assert SeriesMatrix("hankel", 1, 0).determinant() == (1,)
    assert hankel_determinant(1, 2) == HalfPowerSeries(HALF, (1, HALF))
    assert toeplitz_determinant(1, 3) == HalfPowerSeries(0, (1, 1, Fraction(1, 4)))
    with pytest.raises(ValueError):
        SeriesMatrix("circulant", 1, 0).determinant()


def test_bessel_series_general_term():
    # the oracle's grid cut at s-degree 0 is one row, g_n(t) through t**5
    for n in (-2, 2):
        (g,) = bessel_grid_determinant([[n]], 5, s_degree=0)
        assert g == tuple(Fraction(1, factorial(m) * factorial(m + n)) if m + n >= 0 else 0
                          for m in range(6))


def test_two_variable_series_general_term():
    # a 1x1 grid of the oracle is its one entry G_n(s, t), rows a = 0..top//2
    for n in (-3, 0, 2):
        rows = bessel_grid_determinant([[n]], 7)
        assert [len(row) for row in rows] == [8, 6, 4, 2]
        for a, row in enumerate(rows):
            for m, c in enumerate(row):
                k = n + m + 2 * a
                assert c == (Fraction(1, factorial(a) * factorial(m) * factorial(k)) if k >= 0 else 0)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_row_zero_of_the_two_variable_grid_is_the_one_variable_grid(l):
    # setting s = 0 is a ring map, so it commutes with the determinant: row
    # zero of the oracle's grid is its grid cut at s-degree 0, and for the
    # Hankel orders the library's one-variable chain
    hankel_orders = [[j + k + 1 for k in range(l)] for j in range(l)]
    for h in range(l + 1):
        top = 2 * l + 2 * h
        for orders in (hankel_orders, partition_sum_orders(l)):
            row_zero = bessel_grid_determinant(orders, top)[0]
            assert bessel_grid_determinant(orders, top, s_degree=0) == (row_zero,)
        assert bessel_grid_determinant(hankel_orders, top)[0] == (
            SeriesMatrix("hankel", l, top).determinant())


@pytest.mark.parametrize("l", range(1, 9))
def test_toda_chain_matches_the_laplace_oracle(l):
    # the oracle through x**29 cut at x**(terms-1) is the oracle through
    # x**(terms-1); the Toeplitz oracle is the full l x l grid, so this also
    # checks the library's cap at terms - 1 rows
    grids = [
        (hankel_determinant, lambda j, k: j + k + 1, Fraction(l * l, 2)),
        (toeplitz_determinant, lambda j, k: j - k, 0),
    ]
    for determinant, order, offset in grids:
        orders = [[order(j, k) for k in range(l)] for j in range(l)]
        (oracle,) = bessel_grid_determinant(orders, 29, s_degree=0)
        for terms in (1, 2, 3, 5, 30):
            assert determinant(l, terms) == HalfPowerSeries(offset, oracle[:terms])


def test_an_inexact_step_of_the_chain_raises(monkeypatch):
    # a scale that is not a common denominator must raise, never round
    monkeypatch.setattr(series, "factorial", lambda n: factorial(n) + 1)
    for family in ("hankel", "toeplitz"):
        with pytest.raises(ArithmeticError, match=f"inexact division in the {family} chain"):
            SeriesMatrix(family, 3, 4).determinant()


def test_series_validation():
    # a plain record: leading zeros and the offset stay as given
    s = HalfPowerSeries(1, (0, 0, 3))
    assert (s.offset, s.coeffs) == (1, (0, 0, 3))
    for determinant in (hankel_determinant, toeplitz_determinant):
        with pytest.raises(ValueError, match="l must be >= 1"):
            determinant(0, 3)
        with pytest.raises(ValueError, match="terms must be >= 1"):
            determinant(2, 0)


@pytest.mark.parametrize("l", range(1, 31))
def test_hankel_leading_coefficient_law(l):
    det = hankel_determinant(l, 1)
    sign = -1 if (l * (l - 1) // 2) % 2 else 1
    assert sign * det.coeffs[0] == cue_moment_coefficient(l)


# The Laplace oracle, `oracles.laplace_determinant`, is the reference for
# the library's chain; these tests check it on its own.


def test_determinant_row_scaling_multilinearity():
    rng = random.Random(20240901)

    def random_series():
        return WeightedSeries([[rng.randint(-9, 9) for _ in range(4)]], 3)

    # series through x**3
    for size in (2, 3):
        for _ in range(5):
            rows = [[random_series() for _ in range(size)] for _ in range(size)]
            scalar = rng.choice([-3, 2, 7])
            row = rng.randrange(size)
            scaled = [list(r) for r in rows]
            scaled[row] = [WeightedSeries([[scalar * c for c in s.rows[0]]], 3) for s in rows[row]]
            (direct,) = laplace_determinant(tuple(map(tuple, scaled))).rows
            (det,) = laplace_determinant(tuple(map(tuple, rows))).rows
            assert direct == [scalar * c for c in det]


def permutation_determinant(grid):
    """Reference determinant of a square grid of series x**offset * (c_0 +
    c_1*x + ...), each given as an (offset, coefficient list) pair: the
    signed sum over all l! permutations of the truncated entry products.
    Returns ({exponent: coefficient}, horizon), where the horizon is the
    lowest exponent through which every product is exact."""
    l = len(grid)
    total = defaultdict(Fraction)
    horizon = None
    for perm in permutations(range(l)):
        offset, product = grid[0][perm[0]]
        for row in range(1, l):
            entry_offset, coeffs = grid[row][perm[row]]
            offset += entry_offset
            (product,) = series_product([product], [coeffs], min(len(product), len(coeffs)) - 1)
        inversions = sum(perm[i] > perm[j] for i in range(l) for j in range(i + 1, l))
        for i, c in enumerate(product):
            total[offset + i] += -c if inversions % 2 else c
        end = offset + len(product) - 1
        horizon = end if horizon is None else min(horizon, end)
    return {e: c for e, c in total.items() if e <= horizon}, horizon


def test_determinant_matches_permutation_expansion_when_minors_cancel():
    # leading coefficients u_j * w_k form a rank-one matrix, so every minor
    # of size >= 2 cancels at its leading coefficient
    rng = random.Random(20261017)
    u, w = (1, 2, -3, 5), (2, -1, 4, 3)
    entries = [
        [[u[j] * w[k]] + [rng.randint(-9, 9) for _ in range(5)] for k in range(4)]
        for j in range(4)
    ]
    matrix = tuple(tuple(WeightedSeries([c], 5) for c in row) for row in entries)
    (corner,) = laplace_determinant(tuple(row[:2] for row in matrix[2:])).rows
    assert corner[0] == 0  # the leading coefficient of this 2x2 minor cancelled
    assert corner[1] != 0
    (det,) = laplace_determinant(matrix).rows
    assert det[:3] == [0, 0, 0]  # x**0..x**2 each need two leading rows, so cancel
    assert det[3] != 0
    expected, horizon = permutation_determinant([[(0, c) for c in row] for row in entries])
    assert horizon == 5
    assert det == [expected.get(e, 0) for e in range(6)]


def test_laplace_determinant_on_any_ring():
    assert laplace_determinant(((2, -1, 0), (-1, 2, -1), (0, -1, 2))) == 4
    # the leading coefficients 1/(j+k+1)! as plain Fractions give the
    # leading coefficient of the series determinant
    leading = tuple(tuple(Fraction(1, factorial(j + k + 1)) for k in range(4)) for j in range(4))
    assert laplace_determinant(leading) == hankel_determinant(4).coeffs[0]
    with pytest.raises(ValueError, match="nonempty square grid"):
        laplace_determinant(((1, 2),))


# Toda cross-check: exact Fraction series products on the determinants'
# coefficients, sharing no code with the integer chain that computed them.
# Each side is exact through x**11: the determinants carry 14 coefficients
# and the second derivative costs two.
TODA_TOP = 11


def times_x(p):
    return [[Fraction(0), *row] for row in p]


def toda_chain(determinant):
    """[1, det(1), ..., det(6)] as one-row series from x**0, 14 terms each."""
    return [[[Fraction(1)] + [Fraction(0)] * 13]] + [
        [list(determinant(l, 14).coeffs)] for l in range(1, 7)
    ]


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_hankel_chain_satisfies_the_toda_equation(l):
    # H_l = det[g_{j+k+1}] and g_n' = g_{n+1}, so Desnanot-Jacobi gives
    # H_{l+1} H_{l-1} = H_l H_l'' - (H_l')**2
    chain = toda_chain(hankel_determinant)
    h, h1 = chain[l], series_derivative(chain[l])
    (hh2,) = series_product(h, series_derivative(h1), TODA_TOP)
    (h1h1,) = series_product(h1, h1, TODA_TOP)
    rhs = [[a - b for a, b in zip(hh2, h1h1)]]
    assert series_product(chain[l + 1], chain[l - 1], TODA_TOP) == rhs


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_toeplitz_chain_satisfies_the_toda_equation(l):
    # the 2D Toda lattice on the symbol exp(t z + s/z), in x = t s:
    # D_{l+1} D_{l-1} = D_l (D_l' + x D_l'') - x (D_l')**2
    chain = toda_chain(toeplitz_determinant)
    d, d1 = chain[l], series_derivative(chain[l])
    inner = [[a + b for a, b in zip(d1[0], times_x(series_derivative(d1))[0])]]
    (first,) = series_product(d, inner, TODA_TOP)
    (second,) = series_product(times_x(d1), d1, TODA_TOP)
    rhs = [[a - b for a, b in zip(first, second)]]
    assert series_product(chain[l + 1], chain[l - 1], TODA_TOP) == rhs


# Painleve III sigma-form: for A = x**a * D with D(0) != 0, the U(l)
# average of (det U)**q * exp(z Tr(U + U^dagger)) on the t = x grading,
# s = t d/dt log A satisfies
#     (t s'')**2 = 4 s'(s' - 1)(s - t s') + l**2 (s' - 1)**2 + q**2 s'**2.
# With n = D D'' - D'**2: D**2 s = a D**2 + t D D', D**2 s' = D D' + t n and
# D**3 s'' = 2 D n + t (D n' - 2 D' n), so times D**6 the equation is an
# identity in D and its first three derivatives, with products only and no
# series division, exact through x**(terms - 4).
SIGMA_TERMS = 30


def sigma_form_residual(average, l, q):
    """Left minus right side of the sigma-form at (l, q), times D**6, for
    the series `average` = x**a * D, through x**(SIGMA_TERMS - 4)."""
    top = SIGMA_TERMS - 4
    # the equation is homogeneous of degree 6 in D: scale D to integers
    scale = math.lcm(*(c.denominator for c in average.coeffs))
    d0 = [[int(c * scale) for c in average.coeffs]]
    d1 = series_derivative(d0)
    d2 = series_derivative(d1)
    t = [[0, 1]]

    def mul(first, *factors):
        for factor in factors:
            first = series_product(first, factor, top)
        return first

    def combine(*terms):
        """The sum of c * p over the (c, p) pairs, each p exact through x**top."""
        return [[sum(c * p[0][m] for c, p in terms) for m in range(top + 1)]]

    n = combine((1, mul(d0, d2)), (-1, mul(d1, d1)))
    n1 = combine((1, mul(d0, series_derivative(d2))), (-1, mul(d1, d2)))
    dd = mul(d0, d0)
    s0 = combine((average.offset, dd), (1, mul(t, d0, d1)))
    s1 = combine((1, mul(d0, d1)), (1, mul(t, n)))
    s2 = combine((2, mul(d0, n)), (1, mul(t, d0, n1)), (-2, mul(t, d1, n)))
    s1_less_dd = combine((1, s1), (-1, dd))
    (residual,) = combine(
        (1, mul(t, t, s2, s2)),
        (-4, mul(s1, s1_less_dd, combine((1, s0), (-1, mul(t, s1))))),
        (-(l * l), mul(dd, s1_less_dd, s1_less_dd)),
        (-(q * q), mul(dd, s1, s1)),
    )
    return residual


@pytest.mark.parametrize(
    "l, q", [(l, 0) for l in range(1, 7)] + [(2, 1), (3, 1), (3, 2), (4, 3)]
)
def test_unitary_averages_satisfy_the_painleve_sigma_form(l, q):
    # q = 0 is the Toeplitz determinant itself
    if q:
        average = unitary_average(l, q, SIGMA_TERMS)
    else:
        average = toeplitz_determinant(l, SIGMA_TERMS)
    assert average.offset == Fraction(l * q, 2)
    assert not any(sigma_form_residual(average, l, q))
    # negative control: the equation at q + 1 fails
    assert any(sigma_form_residual(average, l, q + 1))


@pytest.mark.parametrize(
    "l, terms, size",
    [(20, 3, 2), (5, 1, 1), (5, 2, 1), (4, 5, 4), (5, 5, 4), (3, 10, 3)],
)
def test_toeplitz_grid_is_capped_at_terms_minus_one(l, terms, size, monkeypatch):
    # T_l(n) = n! for l >= n, so an l x l grid above terms - 1 rows is
    # wasted work; the full grid's agreement is tested in test_lis.py
    calls = []
    run = series.SeriesMatrix.determinant

    def recording(grid):
        calls.append(tuple(grid))
        return run(grid)

    monkeypatch.setattr(series.SeriesMatrix, "determinant", recording)
    toeplitz_determinant(l, terms)
    assert calls == [("toeplitz", size, terms - 1)]


def test_unitary_average_one_dimensional():
    avg = unitary_average(1, 1, 6)
    ref = bessel(1, 6)
    assert avg.offset == ref.offset
    assert avg.coeffs == ref.coeffs


def test_unitary_average_matches_angular_quadrature():
    # one-dimensional average at z = 1/2: (1/2pi) int e^{i t} e^{2 z cos t} dt
    z = 0.5
    angular, _ = quad(lambda t: math.cos(t) * math.exp(2 * z * math.cos(t)), 0, 2 * math.pi)
    angular /= 2 * math.pi
    avg = unitary_average(1, 1, 12)
    x = z * z
    value = float(x) ** float(avg.offset) * sum(
        float(c) * x**k for k, c in enumerate(avg.coeffs)
    )
    assert abs(value - angular) < 1e-12
    assert abs(value - iv(1, 2 * z)) < 1e-12  # library Bessel as second oracle


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_unitary_average_matches_toeplitz(l):
    avg = unitary_average(l, 0, 8)
    det = toeplitz_determinant(l, 8)
    assert avg.offset == det.offset == 0
    assert len(avg.coeffs) == len(det.coeffs) == 8
    assert avg.coeffs == det.coeffs


@pytest.mark.parametrize(
    "l,sign", [(1, 1), (2, -1), (3, -1), (4, 1), (5, 1), (6, -1), (7, -1), (8, 1),
               (9, 1), (10, -1), (11, -1), (12, 1), (13, 1), (14, -1), (15, -1), (16, 1)]
)
def test_hankel_identity(l, sign):
    # 12 terms reach partitions of up to 11; for l <= 10 some of them have
    # more than l rows, which the unitary average must leave out
    report = check_hankel_identity(l, 12)
    assert report.matched
    assert report.sign == sign
    assert report.terms_compared == 12


def test_hankel_identity_compares_eight_coefficients_by_default():
    assert check_hankel_identity(3).terms_compared == 8


def test_hankel_identity_range_guard(monkeypatch):
    with pytest.raises(ValueError, match="l must be >= 1, got 0"):
        check_hankel_identity(0, 4)
    # the Hankel side is refused before the character sum starts
    monkeypatch.setattr(series, "unitary_average", None)
    with pytest.raises(ValueError, match="l=51 cannot be printed: .* more than 4300 digits"):
        check_hankel_identity(51, 4)


@pytest.mark.parametrize("limit", [0, 4, 3])
def test_hankel_series_is_refused_past_the_str_digit_limit(limit, monkeypatch):
    # at l = 3 the first coefficient is -1/8640, a four-digit denominator:
    # printable under a limit of 4 digits, not of 3; 0 means no limit
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
    if limit == 3:
        with pytest.raises(ValueError, match="l=3 cannot be printed: .* more than 3 digits"):
            hankel_determinant(3, 2)
    else:
        expected = HalfPowerSeries(Fraction(9, 2), (Fraction(-1, 8640), Fraction(-1, 17280)))
        assert hankel_determinant(3, 2) == expected


def test_hankel_identity_detects_corruption(monkeypatch):
    det = hankel_determinant(2, 6)
    corrupted = HalfPowerSeries(
        det.offset,
        det.coeffs[:3] + (det.coeffs[3] + 1,) + det.coeffs[4:],
    )
    monkeypatch.setattr(series, "hankel_determinant", lambda l, terms: corrupted)
    report = check_hankel_identity(2, 6)
    assert not report.matched
    assert report.terms_compared == 3
    assert report.mismatch_exponent == det.offset + 3
    assert report.lhs_coefficient == -det.coeffs[3]  # the sign for l = 2 is -1
    assert report.rhs_coefficient == -(det.coeffs[3] + 1)


@pytest.mark.parametrize(
    "offset_shift, terms_shift", [(1, 0), (HALF, 0), (0, -1), (0, 1)]
)
def test_hankel_identity_refuses_misaligned_sides(offset_shift, terms_shift, monkeypatch):
    # a shifted or resized side must raise, never be compared index by index
    det = hankel_determinant(2, 6)
    coeffs = (det.coeffs + (Fraction(0),))[: len(det.coeffs) + terms_shift]
    shifted = HalfPowerSeries(det.offset + offset_shift, coeffs)
    monkeypatch.setattr(series, "hankel_determinant", lambda l, terms: shifted)
    with pytest.raises(ArithmeticError, match="misaligned"):
        check_hankel_identity(2, 6)


def test_json_serialization_round_trip(capsys):
    assert main(["hankel", "--l", "2", "--terms", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["offset"] == "2/1"
    rebuilt = HalfPowerSeries(
        Fraction(payload["offset"]), tuple(Fraction(c) for c in payload["coefficients"])
    )
    assert rebuilt == hankel_determinant(2, 4)
