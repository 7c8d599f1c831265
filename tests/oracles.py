"""Closed forms that the tests and the acceptance suite check the library
against.  The library itself has no use for them, so they live here."""

import math
from fractions import Fraction
from math import factorial

import numpy

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


def residue_residual(v, lam):
    """The log-form lambda residual by residues: pi * sum_k (-y_k)**(-1/2)
    - l*pi over the l roots y_k of Q(y) = lam + sum_h C(l,h) v_h y**h
    (v_l = 1), principal branch, from numpy's companion-matrix roots.  It
    holds when lam > 0 and every v_h > 0, since Q then has no root on
    [0, inf)."""
    coeffs = bounds._weight_coeffs(v)
    roots = numpy.roots([*reversed(coeffs), lam]).astype(complex)
    return math.pi * sum((-y) ** -0.5 for y in roots).real - len(coeffs) * math.pi
