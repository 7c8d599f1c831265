"""Bessel series, determinant expansions, and the unitary-average identity."""

import hashlib
import math
import random
from collections import defaultdict
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from scipy.integrate import quad
from scipy.special import iv

from oracles import cue_moment_coefficient
from zgap.cli import main
from zgap.series import (
    HalfPowerSeries,
    IntegerSeries,
    SeriesMatrix,
    _bessel_determinant,
    check_hankel_identity,
    hankel_determinant,
    toeplitz_determinant,
    unitary_average,
)

HALF = Fraction(1, 2)


def bessel_coefficients(order, terms):
    """Coefficients of I_order(2*sqrt(x)) / x**(order/2) through x**(terms-1)."""
    return [Fraction(1, factorial(m) * factorial(m + order)) for m in range(terms)]


def bessel(order, terms):
    """I_order(2*sqrt(x)), order >= 0, as a series with offset order/2."""
    return HalfPowerSeries(Fraction(order, 2), tuple(bessel_coefficients(order, terms)))


def test_bessel_series_examples():
    # a 1x1 grid is its one entry g_n(x) = sum_m x**m / (m! (m+n)!)
    assert _bessel_determinant([[0]], 3) == (1, 1, Fraction(1, 4))
    assert _bessel_determinant([[1]], 2) == (1, HALF)
    assert _bessel_determinant([[3]], 1) == (Fraction(1, 6),)
    # 1/(negative)! = 0, so g_{-2}(x) = x**2 * g_2(x)
    assert _bessel_determinant([[-2]], 5) == (0, 0) + _bessel_determinant([[2]], 3)
    assert hankel_determinant(1, 2) == HalfPowerSeries(HALF, (1, HALF))
    assert toeplitz_determinant(1, 3) == HalfPowerSeries(0, (1, 1, Fraction(1, 4)))


def test_bessel_series_general_term():
    g = _bessel_determinant([[2]], 6)
    for m in range(6):
        assert g[m] == Fraction(1, factorial(m) * factorial(m + 2))


def test_series_validation():
    with pytest.raises(ValueError):
        HalfPowerSeries(Fraction(1, 3), (Fraction(1),))
    with pytest.raises(ValueError):
        HalfPowerSeries(Fraction(0), ())
    for determinant in (hankel_determinant, toeplitz_determinant):
        with pytest.raises(ValueError, match="l must be >= 1"):
            determinant(0, 3)
        with pytest.raises(ValueError, match="terms must be >= 1"):
            determinant(2, 0)


def test_series_normalization_strips_leading_zeros():
    s = HalfPowerSeries(Fraction(1), (Fraction(0), Fraction(0), Fraction(3), Fraction(1)))
    assert s.offset == 3
    assert s.coeffs == (Fraction(3), Fraction(1))
    zero = HalfPowerSeries(Fraction(2), (Fraction(0), Fraction(0)))
    assert zero.coeffs == (0, 0)
    assert zero.offset == 2  # identically-zero series keeps its window


def test_coefficient_access():
    s = hankel_determinant(1, 3)  # I_1(2 sqrt x): offset 1/2, known through 5/2
    assert s.coefficient(HALF) == 1
    assert s.coefficient(Fraction(5, 2)) == Fraction(1, 12)
    assert s.coefficient(0) == 0  # below the offset
    assert s.coefficient(1) == 0  # off the parity grid
    with pytest.raises(ValueError):
        s.coefficient(Fraction(7, 2))


def test_hankel_l1_equals_first_order_bessel():
    det = hankel_determinant(1, 6)
    ref = bessel(1, 6)
    assert det.offset == ref.offset == HALF
    assert det.coeffs == ref.coeffs
    assert det.coeffs[:3] == (Fraction(1), Fraction(1, 2), Fraction(1, 12))


def test_hankel_l2_by_hand():
    # I1*I3 - I2^2 expanded to second order by hand from 1/(m!(m+nu)!):
    #   x^2 * [ (1/6 - 1/4) + (1/24 + 1/12 - 2*(1/2)*(1/6)) x + ... ]
    lead = Fraction(1, 6) - Fraction(1, 4)
    second = Fraction(1, 24) + Fraction(1, 12) - 2 * Fraction(1, 2) * Fraction(1, 6)
    assert lead == Fraction(-1, 12)
    assert second == Fraction(-1, 24)
    det = hankel_determinant(2, 5)
    assert det.offset == 2
    assert det.coeffs[0] == lead
    assert det.coeffs[1] == second


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_hankel_offset_grading(l):
    det = hankel_determinant(l, 3)
    assert det.offset == Fraction(l * l, 2)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_hankel_leading_coefficient_law(l):
    det = hankel_determinant(l, 3)
    sign = -1 if (l * (l - 1) // 2) % 2 else 1
    assert sign * det.coeffs[0] == cue_moment_coefficient(l)


def test_determinant_row_scaling_multilinearity():
    rng = random.Random(20240901)

    def random_series(lengths):
        return IntegerSeries([[rng.randint(-9, 9) for _ in range(n)] for n in lengths])

    # one-row series through x**3, and two-variable ones at weighted degree 4
    for lengths in ([4], [5, 3, 1]):
        for size in (2, 3):
            for _ in range(5):
                rows = [[random_series(lengths) for _ in range(size)] for _ in range(size)]
                scalar = rng.choice([-3, 2, 7])
                row = rng.randrange(size)
                scaled = [list(r) for r in rows]
                scaled[row] = [IntegerSeries([[scalar * c for c in p] for p in s.rows])
                               for s in rows[row]]
                direct = SeriesMatrix(tuple(map(tuple, scaled))).determinant()
                det = SeriesMatrix(tuple(map(tuple, rows))).determinant()
                assert direct.rows == [[scalar * c for c in p] for p in det.rows]


def truncated_product(a, b):
    """Product of two coefficient lists, cut at the shorter length."""
    out = [Fraction(0)] * min(len(a), len(b))
    for i, x in enumerate(a[: len(out)]):
        for j, y in enumerate(b[: len(out) - i]):
            out[i + j] += x * y
    return out


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
            product = truncated_product(product, coeffs)
        inversions = sum(perm[i] > perm[j] for i in range(l) for j in range(i + 1, l))
        for i, c in enumerate(product):
            total[offset + i] += -c if inversions % 2 else c
        end = offset + len(product) - 1
        horizon = end if horizon is None else min(horizon, end)
    return {e: c for e, c in total.items() if e <= horizon}, horizon


def bessel_grid(l, terms, order):
    """Entries I_{order(j, k)}(2*sqrt(x)), order >= 0, as (offset, coefficients)."""
    return [
        [(Fraction(order(j, k), 2), bessel_coefficients(order(j, k), terms)) for k in range(l)]
        for j in range(l)
    ]


@pytest.mark.parametrize("terms", [1, 3, 12])
@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_determinant_matches_permutation_expansion(l, terms):
    # the Toeplitz entries are I_{|j-k|}(2z) with x = z**2, on the x grading
    cases = [
        (hankel_determinant(l, terms), lambda j, k: j + k + 1),
        (toeplitz_determinant(l, terms), lambda j, k: abs(j - k)),
    ]
    for det, order in cases:
        expected, horizon = permutation_determinant(bessel_grid(l, terms, order))
        assert det.known_through == horizon
        start = min(expected)
        for i in range(int(horizon - start) + 1):
            assert det.coefficient(start + i) == expected.get(start + i, 0)


def test_determinant_matches_permutation_expansion_when_minors_cancel():
    # leading coefficients u_j * w_k form a rank-one matrix, so every minor
    # of size >= 2 cancels at its leading coefficient
    rng = random.Random(20261017)
    u, w = (1, 2, -3, 5), (2, -1, 4, 3)
    entries = [
        [[u[j] * w[k]] + [rng.randint(-9, 9) for _ in range(5)] for k in range(4)]
        for j in range(4)
    ]
    matrix = SeriesMatrix(tuple(tuple(IntegerSeries([c]) for c in row) for row in entries))
    corner = SeriesMatrix(tuple(row[:2] for row in matrix.entries[2:])).determinant()
    assert corner.rows[0][0] == 0  # the leading coefficient of this 2x2 minor cancelled
    assert corner.rows[0][1] != 0
    det = matrix.determinant().rows[0]
    assert det[:3] == [0, 0, 0]  # x**0..x**2 each need two leading rows, so cancel
    assert det[3] != 0
    expected, horizon = permutation_determinant([[(0, c) for c in row] for row in entries])
    assert horizon == 5
    assert det == [expected.get(e, 0) for e in range(6)]


def test_laplace_determinant_on_any_ring():
    assert SeriesMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 2))).determinant() == 4
    # the leading coefficients 1/(j+k+1)! as plain Fractions give the
    # leading coefficient of the series determinant
    leading = tuple(tuple(Fraction(1, factorial(j + k + 1)) for k in range(4)) for j in range(4))
    assert SeriesMatrix(leading).determinant() == hankel_determinant(4).coeffs[0]


def test_determinant_product_count(monkeypatch):
    products = 0
    multiply = IntegerSeries.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(IntegerSeries, "__mul__", counting)
    counts = []
    for l in range(1, 7):
        products = 0
        hankel_determinant.__wrapped__(l, 4)  # past the cache
        counts.append(products)
    assert counts == [l * 2 ** (l - 1) - l for l in range(1, 7)]
    assert counts[-1] == 186


def test_hankel_l8_is_in_reach(capsys):
    det = hankel_determinant(8, 12)
    assert det.offset == 32
    assert len(det.coeffs) == 12
    assert main(["hankel", "--l", "8", "--terms", "12"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "43eaa4761ea773603f10539b5144b154fbe48451c9a99b820f41a84ffff6fabb"


def test_toeplitz_l1_is_zeroth_order_bessel():
    det = toeplitz_determinant(1, 6)
    assert det.offset == 0
    for n in range(6):
        assert det.coefficient(n) == Fraction(1, factorial(n) ** 2)


def test_toeplitz_l2_degree_three_coefficient():
    # T_2(3) = 5 by brute force, so the x^3 (z^6) coefficient is 5/36
    from zgap.lis import count_by_enumeration

    assert count_by_enumeration(2, 3) == 5
    det = toeplitz_determinant(2, 5)
    assert det.coefficient(3) == Fraction(5, 36)


def test_toeplitz_l3_constant_term():
    assert toeplitz_determinant(3, 4).coefficient(0) == 1


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
    for n in range(8):
        assert avg.coefficient(n) == det.coefficient(n)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_unitary_average_normalization(l):
    assert unitary_average(l, 0, 3).coefficient(0) == 1


@pytest.mark.parametrize(
    "l,sign", [(1, 1), (2, -1), (3, -1), (4, 1), (5, 1), (6, -1), (7, -1), (8, 1)]
)
def test_hankel_identity(l, sign):
    # 12 terms reach partitions of up to 11 with more than l rows, which the
    # unitary average must leave out, for every l here
    report = check_hankel_identity(l, 12)
    assert report.matched
    assert report.sign == sign
    assert report.terms_compared == 12


def test_hankel_identity_range_guard():
    for l in (0, 9):
        with pytest.raises(ValueError, match="l in 1..8"):
            check_hankel_identity(l, 4)


def test_hankel_identity_detects_corruption():
    det = hankel_determinant(2, 6)
    corrupted = HalfPowerSeries(
        det.offset,
        det.coeffs[:3] + (det.coeffs[3] + 1,) + det.coeffs[4:],
    )
    report = check_hankel_identity(2, 6, rhs=corrupted)
    assert not report.matched
    assert report.mismatch_exponent == det.offset + 3
    assert report.lhs_coefficient != report.rhs_coefficient


def test_json_serialization_round_trip():
    det = hankel_determinant(2, 4)
    payload = det.to_json_dict()
    assert payload["offset"] == "2/1"
    rebuilt = HalfPowerSeries(
        Fraction(payload["offset"]), tuple(Fraction(c) for c in payload["coefficients"])
    )
    assert rebuilt == det
