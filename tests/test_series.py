"""Bessel series, determinant expansions, and the unitary-average identity."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from scipy.integrate import quad
from scipy.special import iv

from zgap.arith import factorial
from zgap.moments import cue_moment_coefficient
from zgap.series import (
    HalfPowerSeries,
    SeriesMatrix,
    bessel_i_sqrt,
    check_hankel_identity,
    hankel_determinant,
    laplace_determinant,
    toeplitz_determinant,
    unitary_average,
)

HALF = Fraction(1, 2)


def test_bessel_series_examples():
    s = bessel_i_sqrt(0, 3)
    assert s.offset == 0
    assert s.coeffs == (Fraction(1), Fraction(1), Fraction(1, 4))

    s = bessel_i_sqrt(1, 2)
    assert s.offset == HALF
    assert s.coeffs == (Fraction(1), Fraction(1, 2))

    s = bessel_i_sqrt(3, 1)
    assert s.offset == Fraction(3, 2)
    assert s.coeffs == (Fraction(1, 6),)


def test_bessel_series_general_term():
    s = bessel_i_sqrt(2, 6)
    for m in range(6):
        assert s.coeffs[m] == Fraction(1, factorial(m) * factorial(m + 2))


def test_series_validation():
    with pytest.raises(ValueError):
        HalfPowerSeries(Fraction(1, 3), (Fraction(1),))
    with pytest.raises(ValueError):
        HalfPowerSeries(Fraction(0), ())
    with pytest.raises(ValueError):
        bessel_i_sqrt(-1, 3)
    with pytest.raises(ValueError):
        bessel_i_sqrt(0, 0)


def test_series_normalization_strips_leading_zeros():
    s = HalfPowerSeries(Fraction(1), (Fraction(0), Fraction(0), Fraction(3), Fraction(1)))
    assert s.offset == 3
    assert s.coeffs == (Fraction(3), Fraction(1))
    zero = HalfPowerSeries(Fraction(2), (Fraction(0), Fraction(0)))
    assert zero.is_zero()
    assert zero.offset == 2  # identically-zero series keeps its window


def test_series_parity_mismatch_rejected():
    a = bessel_i_sqrt(0, 3)
    b = bessel_i_sqrt(1, 3)
    with pytest.raises(ValueError):
        a + b


def test_coefficient_access():
    s = bessel_i_sqrt(1, 3)  # offset 1/2, known through 5/2
    assert s.coefficient(HALF) == 1
    assert s.coefficient(Fraction(5, 2)) == Fraction(1, 12)
    assert s.coefficient(0) == 0  # below the offset
    assert s.coefficient(1) == 0  # off the parity grid
    with pytest.raises(ValueError):
        s.coefficient(Fraction(7, 2))


def test_hankel_l1_equals_first_order_bessel():
    det = hankel_determinant(1, 6)
    ref = bessel_i_sqrt(1, 6)
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

    def random_series():
        offset = Fraction(rng.randint(0, 2))
        coeffs = tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(4)
        )
        if all(c == 0 for c in coeffs):
            coeffs = (Fraction(1),) + coeffs[1:]
        return HalfPowerSeries(offset, coeffs)

    for size in (2, 3):
        for _ in range(5):
            matrix = SeriesMatrix(
                tuple(tuple(random_series() for _ in range(size)) for _ in range(size))
            )
            scalar = Fraction(3, 7)
            row = rng.randrange(size)
            direct = matrix.scale_row(row, scalar).determinant()
            scaled = scalar * matrix.determinant()
            assert direct.offset == scaled.offset
            assert direct.coeffs == scaled.coeffs


def permutation_determinant(matrix):
    """Reference determinant: the signed sum over all l! permutations."""
    l = matrix.dimension
    total = None
    for perm in permutations(range(l)):
        product = matrix.entries[0][perm[0]]
        for row in range(1, l):
            product = product * matrix.entries[row][perm[row]]
        inversions = sum(perm[i] > perm[j] for i in range(l) for j in range(i + 1, l))
        term = -product if inversions % 2 else product
        total = term if total is None else total + term
    return total


def bessel_matrix(l, terms, order):
    return SeriesMatrix(
        tuple(tuple(bessel_i_sqrt(order(j, k), terms) for k in range(l)) for j in range(l))
    )


@pytest.mark.parametrize("terms", [1, 3, 12])
@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_determinant_matches_permutation_expansion(l, terms):
    hankel = bessel_matrix(l, terms, lambda j, k: j + k + 1)
    toeplitz = bessel_matrix(l, terms, lambda j, k: abs(j - k))
    for matrix in (hankel, toeplitz):
        assert matrix.determinant() == permutation_determinant(matrix)


def test_determinant_matches_permutation_expansion_when_minors_cancel():
    # leading coefficients u_j * w_k form a rank-one matrix, so every minor
    # of size >= 2 cancels at its leading coefficient
    rng = random.Random(20261017)
    u, w = (1, 2, -3, 5), (2, -1, 4, 3)
    matrix = SeriesMatrix(
        tuple(
            tuple(
                HalfPowerSeries(
                    HALF,
                    (Fraction(u[j] * w[k]),)
                    + tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)),
                )
                for k in range(4)
            )
            for j in range(4)
        )
    )
    corner = SeriesMatrix(tuple(row[:2] for row in matrix.entries[2:])).determinant()
    assert corner.offset == 2  # the x**1 coefficient of this 2x2 minor cancelled
    det = matrix.determinant()
    assert det.offset == 5  # x**2..x**4 each need two leading rows, so cancel
    assert not det.is_zero()
    assert det == permutation_determinant(matrix)


def test_laplace_determinant_on_any_ring():
    matrix = bessel_matrix(4, 6, lambda j, k: j + k + 1)
    assert laplace_determinant(matrix.entries) == matrix.determinant()
    # the leading coefficients 1/(j+k+1)! as plain Fractions give the
    # leading coefficient of the series determinant
    leading = [[Fraction(1, factorial(j + k + 1)) for k in range(4)] for j in range(4)]
    assert laplace_determinant(leading) == hankel_determinant(4).coeffs[0]


def test_determinant_product_count(monkeypatch):
    products = 0
    multiply = HalfPowerSeries.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(HalfPowerSeries, "__mul__", counting)
    counts = []
    for l in range(1, 7):
        matrix = bessel_matrix(l, 4, lambda j, k: j + k + 1)
        products = 0
        matrix.determinant()
        counts.append(products)
    assert counts == [l * 2 ** (l - 1) - l for l in range(1, 7)]
    assert counts[-1] == 186


def test_hankel_l8_is_in_reach():
    det = hankel_determinant(8, 12)
    assert det.offset == 32
    assert len(det.coeffs) == 12


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
    ref = bessel_i_sqrt(1, 6)
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


@pytest.mark.parametrize("l,sign", [(1, 1), (2, -1), (3, -1), (4, 1)])
def test_hankel_identity(l, sign):
    report = check_hankel_identity(l, 8 if l < 4 else 5)
    assert report.matched
    assert report.sign == sign
    assert report.terms_compared >= (5 if l == 4 else 8)


def test_hankel_identity_range_guard():
    with pytest.raises(ValueError):
        check_hankel_identity(5, 4)


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
