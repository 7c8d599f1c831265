"""Closed forms that the tests and the acceptance suite check the library
against.  The library itself has no use for them, so they live here."""

import math
from fractions import Fraction
from math import factorial

from zgap import bounds
from zgap.moments import coefficient_column
from zgap.series import bessel_determinant


def cue_moment_coefficient(l):
    """prod_{j=0}^{l-1} j!/(j+l)!: the leading coefficient of the 2l-th
    absolute moment of the characteristic polynomial over U(N), N -> inf."""
    out = Fraction(1)
    for j in range(l):
        out *= Fraction(math.factorial(j), math.factorial(j + l))
    return out


def hall_ratio(h, n):
    """A(h) = |(2h-1)/(2h-3)| * B(h-1)/B(h) for the l = 4 reference column
    of derivative pair (n+1, n), where B(h) = 4**(h-4) * b[h]/b[4], so
    B(h-1)/B(h) = b[h-1] / (4*b[h])."""
    b = coefficient_column(n)
    return abs(Fraction(2 * h - 1, 2 * h - 3)) * b[h - 1] / (4 * b[h])


def per_h_partition_sum(h, l):
    """The (2, 1) partition sum S(h, l) read from its own determinant,
    truncated at top = 2l + 2h with s-degree l + h, instead of from the
    one top = 4l determinant that the library shares across the column."""
    top = 2 * l + 2 * h
    orders = [[2 * l - i - j for j in range(1, l + 1)] for i in range(l)]
    det = bessel_determinant(orders, top, l + h)
    total = Fraction(0)
    for k in range(2 * h + 1):
        remaining = top - 2 * k
        inner = sum(
            det[k][remaining - m0] * Fraction((-1) ** m0, 2**m0 * factorial(m0))
            for m0 in range(remaining + 1)
        )
        total += math.comb(2 * h, k) * factorial(k) * factorial(remaining) * inner
    sign = (-1) ** (l - h + (l * (l - 1)) // 2)
    return sign * total


def perturbed_x_values_by_bisection(n, rel, quad_tol):
    """`bounds.perturbed_x_values` with each lambda solved by
    `_root_of_decreasing` on the residue residual itself: every bracket and
    bisection point is a root sweep, with no Newton step and no enclosure."""
    capB, _, _, derived = bounds._exact_prelude(coefficient_column(n))
    base_v = tuple(float(t) for t in derived.v_exact)
    out = []
    for h in range(len(base_v)):
        for direction in (1.0 - rel, 1.0 + rel):
            v = base_v[:h] + (base_v[h] * direction,) + base_v[h + 1:]
            coeffs = bounds._weight_coeffs(v)
            lam = bounds._root_of_decreasing(
                lambda lam: bounds._residue_residual(coeffs, lam), quad_tol
            )
            out.append(bounds.solve_x(v, lam, capB, tol=quad_tol))
    return out
