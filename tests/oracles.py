"""Closed forms that the tests and the acceptance suite check the library
against.  The library itself has no use for them, so they live here."""

import math
from fractions import Fraction

from zgap.moments import coefficient_column


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
