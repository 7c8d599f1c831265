"""Exact truncated series for modified Bessel functions of the first kind
and the Hankel/Toeplitz determinants built from them.

Row and column factors
----------------------
The modified Bessel function is taken in its standard series form

    I_n(2*sqrt(x)) = x**(n/2) * g_n(x),   g_n(x) = sum_{m>=0} x**m / (m! * (m+n)!),

with 1/(negative)! = 0, so g_{-n}(x) = x**n * g_n(x) and the form also
holds for negative n (I_{-n} = I_n).  In both determinants the power of x
in entry (j, k) splits into a factor of row j times a factor of column k,
and those factors come out of the determinant:

* Hankel: x**((j+k+1)/2) = x**(j/2) * x**((k+1)/2), so
  det[I_{j+k+1}(2*sqrt(x))] = x**(l**2/2) * det[g_{j+k+1}(x)].
* Toeplitz: with x = z**2, I_{j-k}(2z) = z**j * z**(-k) * g_{j-k}(x); the
  row and column factors cancel over every permutation, so
  det[I_{j-k}(2z)] = det[g_{j-k}(x)].

The Toda chain
--------------
Sylvester's identity (Desnanot-Jacobi) on the corner minors gives each
family a recurrence in the size k, from 1 at k = 0:

* Hankel, H_k = det[g_{j+k+1}], H_1 = g_1 and g_n' = g_{n+1}:
  H_{k+1} * H_{k-1} = H_k * H_k'' - (H_k')**2.
* Toeplitz, D_k = det[g_{j-k}], D_1 = g_0 and theta = x * d/dx (the 2D
  Toda lattice): x * D_{k+1} * D_{k-1} = D_k * theta**2 D_k - (theta D_k)**2.

A step is one product and one division by H_{k-1} or D_{k-1}, whose
constant term is nonzero.  It loses two coefficients to the Hankel
derivatives or one to the Toeplitz division by x, so a size-l grid through
x**top starts from g_1 or g_0 through x**h, h = top + 2(l-1) or top + l-1.

`SeriesMatrix.determinant` runs the chain on integers A_k = S_k * H_k (or
S_k * D_k):
* Toeplitz: S_k = h!**2, since (n!)**2 * [x**n] D_k counts permutations
  (see `toeplitz_determinant`); the scales cancel in a step.
* Hankel: S_k = h! * (h + k**2)!, since the character sum of
  `unitary_average` makes m! * (m + k**2)! * [x**m] H_k an integer; a step
  multiplies by S_{k+1}/S_k and divides by S_k/S_{k-1}.
Every division is exact and raises ArithmeticError on a remainder; the
result is divided by S_l once.  Nothing in this module rounds.

Results are `HalfPowerSeries`: x**offset * (c_0 + c_1*x + ...) with the
offset a multiple of 1/2 and `terms` exact coefficients: Toeplitz from
x**0, Hankel from x**(l**2/2).  Reading x as z**2 turns the Toeplitz
result into the even series of det[I_{j-k}(2z)]; the unitary-average
comparisons below use exactly that identification (z-degree = 2 *
x-degree).  `unitary_average` is the one character sum (standard-tableau
counts from Young's lattice by `zgap.arith.add_strip`, which builds the
Kostka numbers of `zgap.moments` too): `zgap.lis` reads q = 0,
`check_hankel_identity` q = l.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import factorial  # bound by name: perfbench/tracer.py counts calls here
from math import perm, prod
from typing import NamedTuple

from .arith import DEFAULT_TERMS, add_strip


class HalfPowerSeries(NamedTuple):
    """x**offset * (c_0 + c_1*x + ... + c_{K-1}*x**(K-1)), K >= 1, offset a
    multiple of 1/2: the determinants' and averages' result."""

    offset: Fraction
    coeffs: tuple[Fraction, ...]

    def __mul__(self, scalar) -> "HalfPowerSeries":
        """The series times a rational scalar.  Bound by name:
        perfbench/tracer.py counts its calls."""
        scalar = Fraction(scalar)
        return HalfPowerSeries(self.offset, tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__


class SeriesMatrix(NamedTuple):
    """One Bessel grid: det[g_{j+k+1}] (family "hankel") or det[g_{j-k}]
    (family "toeplitz") for j, k = 0..size-1, through x**top.  Bound by
    name: perfbench/tracer.py times `determinant`."""

    family: str
    size: int
    top: int

    def determinant(self) -> tuple[Fraction, ...]:
        """The grid's determinant through x**top, by the integer Toda chain
        of the module docstring."""
        hankel = ("toeplitz", "hankel").index(self.family)  # also the corner order
        h = self.top + (1 + hankel) * (self.size - 1)

        def exact(numerator: int, denominator: int) -> int:
            quotient, remainder = divmod(numerator, denominator)
            if remainder:
                raise ArithmeticError(f"inexact division in the {self.family} chain")
            return quotient

        def scale(k: int) -> int:
            return factorial(h) * factorial(h + hankel * k * k)

        below = [scale(0)] + [0] * h
        here = [exact(scale(1), factorial(m) * factorial(m + hankel)) for m in range(h + 1)]
        for k in range(1, self.size):
            # d/dx is theta with the constant term dropped
            d1 = [m * c for m, c in enumerate(here)][hankel:]
            d2 = [m * c for m, c in enumerate(d1)][hankel:]
            n = len(d2)
            p = [0] * n
            for i in range(n):
                for j in range(n - i):
                    p[i + j] += here[i] * d2[j] - d1[i] * d1[j]
            up, down = exact(scale(k + 1), scale(k)), exact(scale(k), scale(k - 1))
            quotient = []
            for m, c in enumerate(p[1 - hankel:]):  # Toeplitz: p / x
                c = exact(c * up, down) - sum(quotient[j] * below[m - j] for j in range(m))
                quotient.append(exact(c, below[0]))
            below, here = here, quotient
        return tuple(Fraction(c, scale(self.size)) for c in here)  # top + 1 of them


def _check_size(l: int, terms: int) -> None:
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")


def hankel_determinant(l: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """det[ I_{j+k+1}(2*sqrt(x)) ] for j,k = 0..l-1, expanded exactly as
    x**(l**2/2) * det[g_{j+k+1}(x)], with `terms` exact coefficients.

    The first coefficient is (-1)**(l(l-1)/2) / d, d = prod_{i<l}
    (l+i)!/i!.  From l = 51 on, d has more digits than str() may print
    (sys.get_int_max_str_digits(), 4300 by default), so no report could
    be written: such an l raises ValueError before the chain starts, and
    the loop stops multiplying once d passes that bound."""
    _check_size(l, terms)
    digits = sys.get_int_max_str_digits()  # 0: no limit
    d, bound = 1, 10**digits
    for i in range(l if digits else 0):
        d *= perm(l + i, l)
        if d >= bound:
            raise ValueError(f"the Hankel series for l={l} cannot be printed: its first "
                             f"coefficient's denominator has more than {digits} digits")
    return HalfPowerSeries(Fraction(l * l, 2), SeriesMatrix("hankel", l, terms - 1).determinant())


def toeplitz_determinant(l: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """det[ I_{j-k}(2z) ] for j,k = 0..l-1 as an even series in z, returned
    on the x = z**2 grading as det[g_{j-k}(x)] through x**(terms-1): the
    coefficient of x**n is T_l(n)/(n!)**2 with T_l(n) the number of
    permutations of {1..n} whose longest increasing subsequence has length
    at most l.  T_l(n) = n! for l >= n, so the m x m grid with m =
    max(1, min(l, terms-1)) gives the same coefficients, and the chain
    stops after m - 1 steps."""
    _check_size(l, terms)
    size = max(1, min(l, terms - 1))
    return HalfPowerSeries(Fraction(0), SeriesMatrix("toeplitz", size, terms - 1).determinant())


def unitary_average(l: int, det_power: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """Haar average over the unitary group U(l) of
    (det U)**det_power * exp(z * Tr(U + U^dagger)), as a series on the
    x = z**2 grading.

    By character expansion the average equals

        sum_{partitions lam, at most l rows}
            z**(2|lam| + l*q) * f(lam) * f(lam + (q^l)) / (|lam|! * (|lam| + l*q)!)

    with q = det_power, f the standard-tableau count, and lam + (q^l) the
    shape obtained by padding lam to l rows and adding q to each row.  One
    step of Young's lattice (`add_strip` with one cell) gives f on k cells
    from f on k - 1, and the Frobenius formula, with r = lam + (l-1, ..., 0)
    padded, gives f(lam + (q^l)) = (k + l*q)! * prod_{i<j} (r_i - r_j) /
    prod_i (r_i + q)!, so q = 0 reuses f.  The z-exponent 2k + l*q becomes
    x-exponent k + l*q/2, so the result has offset l*q/2 and integer steps.
    """
    _check_size(l, terms)
    if det_power < 0:
        raise ValueError(f"det_power must be >= 0, got {det_power}")
    q = det_power
    tableaux = {(): 1}  # f(lam) for every lam of k cells with at most l rows
    coeffs = []
    for k in range(terms):
        if k:
            tableaux = add_strip(tableaux, 1, l)
        total, whole = 0, factorial(k + l * q)  # whole = |lam + (q^l)|!
        for lam, f in tableaux.items():
            shifted = f  # f(lam + (q^l))
            if q:
                r = [part + l - 1 - i for i, part in enumerate(lam + (0,) * (l - len(lam)))]
                vandermonde = prod(x - y for i, x in enumerate(r) for y in r[i + 1:])
                shifted = whole * vandermonde // prod(factorial(x + q) for x in r)
            total += f * shifted
        coeffs.append(Fraction(total, factorial(k) * whole))
    return HalfPowerSeries(Fraction(l * q, 2), tuple(coeffs))


class IdentityReport(NamedTuple):
    """Outcome of comparing the unitary average against the signed Hankel
    determinant, coefficient by coefficient."""

    l: int
    sign: int
    terms_compared: int
    matched: bool
    mismatch_exponent: Fraction | None = None
    lhs_coefficient: Fraction | None = None
    rhs_coefficient: Fraction | None = None


def check_hankel_identity(l: int, terms: int = 8) -> IdentityReport:
    """Verify that the U(l) average of (det U)^l exp(z Tr(U + U^dagger))
    equals (-1)**(l(l-1)/2) * det[I_{j+k+1}(2z)] coefficientwise.  Both
    sides are x**(l**2/2) times `terms` coefficients, compared index by
    index (a mismatch at k is at exponent offset + k); sides with different
    offsets or lengths raise, so they can never read as a match.  The
    Hankel side comes first, so an l that `hankel_determinant` refuses
    costs no character sum.
    """
    sign = -1 if (l * (l - 1) // 2) % 2 else 1
    rhs = sign * hankel_determinant(l, terms)
    lhs = unitary_average(l, l, terms)
    if (lhs.offset, len(lhs.coeffs)) != (rhs.offset, len(rhs.coeffs)):
        raise ArithmeticError(f"the identity sides for l={l} are misaligned")
    for k, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return IdentityReport(
                l=l,
                sign=sign,
                terms_compared=k,
                matched=False,
                mismatch_exponent=lhs.offset + k,
                lhs_coefficient=a,
                rhs_coefficient=b,
            )
    return IdentityReport(l=l, sign=sign, terms_compared=len(lhs.coeffs), matched=True)
