"""Leading coefficients of joint moments of the characteristic-polynomial
analogue of Hardy's Z-function over the unitary group, and the exact ratios
derived from them.

Contents:

* ``joint_moment_coefficient(h, l)`` — the exact coefficient for derivative
  pair (2, 1).  Its partition-sum formula is a double sum over
  compositions weighted by a Vandermonde product; by the Andreief /
  Cauchy-Binet mechanism of Conrey-Rubinstein-Snaith it collapses to one
  l x l Hankel determinant of two-variable Bessel-type series, expanded
  with integer coefficients (`zgap.series.IntegerSeries`) by
  `zgap.series.SeriesMatrix.determinant` (the l = 4 column in tens of
  milliseconds, l = 6 in under two seconds),
* ``coefficient_column(n)`` — reference constants for l = 4 and
  derivative pairs (2, 1) and (3, 2), stored in factored form; the (2, 1)
  column is independently reproducible via the partition sum, the (3, 2)
  column enters purely as reference data (no printed formula exists for it,
  so nothing is extrapolated),
* ``ratio_set_from_values(b)`` — the scaled ratios B(h) and A(h) feeding the
  zero-gap optimization in `zgap.bounds` (the arithmetic factor cancels in
  them),
* ``arithmetic_factor(l)`` — a truncated evaluation of the Euler product
  c_l over primes, with an error estimate.  It is contextual: no bound
  computation depends on it.

All coefficient computations are exact; only ``arithmetic_factor`` is
floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial  # bound by name: perfbench/tracer.py counts calls here
from typing import Mapping

# multinomial is no longer called here; it stays bound in this module
# because perfbench/tracer.py counts its calls where moments binds it.
from .arith import FactoredConstant, Rational, multinomial  # noqa: F401
from .series import IntegerSeries, SeriesMatrix

# Terms of the inner sum over m per prime in `arithmetic_factor`.
INNER_TERMS = 64


@dataclass(frozen=True)
class RatioSet:
    """The scaled ratios B(h) (h = 0..l, with B(l) = 1) and the adjacent
    ratios A(h) (h = 1..l) consumed by the optimization pipeline."""

    capB: dict[int, Rational]
    A: dict[int, Rational]


@lru_cache(maxsize=None)
def joint_moment_coefficient(h: int, l: int) -> Rational:
    """Exact leading coefficient of the joint moment with derivative orders
    (n1, n2) = (2, 1).  Its partition-sum formula is

        (-1)**(l - h + l(l-1)/2) *
        sum_{k=0}^{2h} C(2h, k)
          sum_{h_1+..+h_l = k}  sum_{m_0+..+m_l = R_k}
            (-1/2)**m_0 * multinomial(k; h_j) * multinomial(R_k; m_j)
            * prod_{j=1}^{l} 1/(2l + a_j)!  * prod_{j<s} (a_s - a_j),

    with R_k = 2l + 2h - 2k and a_j = m_j + 2 h_j - j.  The pair product is
    the Vandermonde det[a_j**i] (i = 0..l-1, j = 1..l).  Replacing a**i by
    the falling factorial (2l+a)(2l+a-1)...(2l+a-i+1), which is monic of
    degree i in a, leaves the determinant unchanged and cancels against
    1/(2l+a)! to give 1/(2l+a-i)!.  The sums over h_j and m_j then enter
    column by column (Andreief / Cauchy-Binet), so the double sum becomes
    one Hankel determinant of two-variable Bessel-type series

        F_n(s, t) = sum_{a, m >= 0} s**a t**m / (a! m! (2l - n + m + 2a)!)

    (2l - n >= 1 for every entry n = i + j), and the m_0 sum is exp(-t/2):

        S(h, l) = sign * sum_k C(2h, k) k! R_k!
                  * [s**k t**R_k] exp(-t/2) * det[F_{i+j}].

    Every coefficient read lies on 2*deg_s + deg_t = 2l + 2h, so the series
    are truncated there.  Each F_n is scaled by the common denominator
    Q = (l+h)! (2l+2h)! (4l+2h-1)! to integer coefficients, and the
    determinant is divided by Q**l once.  The formula is specific to the
    (2, 1) derivative pair; other pairs are not computed here.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not 0 <= h <= l:
        raise ValueError(f"need 0 <= h <= l, got h={h}, l={l}")
    top = 2 * l + 2 * h
    scale = factorial(l + h) * factorial(top) * factorial(4 * l + 2 * h - 1)
    # scaled[n - 1] is Q * F_n, for the entries n = 1..2l-1
    scaled = [
        IntegerSeries(
            [
                [
                    scale // (factorial(a) * factorial(m) * factorial(2 * l - n + m + 2 * a))
                    for m in range(top - 2 * a + 1)
                ]
                for a in range(top // 2 + 1)
            ]
        )
        for n in range(1, 2 * l)
    ]
    grid = SeriesMatrix(tuple(tuple(scaled[i + j] for j in range(l)) for i in range(l)))
    det = grid.determinant().rows
    total = Fraction(0)
    for k in range(2 * h + 1):
        remaining = top - 2 * k
        inner = sum(
            Fraction((-1) ** m0 * det[k][remaining - m0], 2**m0 * factorial(m0))
            for m0 in range(remaining + 1)
        )
        total += math.comb(2 * h, k) * factorial(k) * factorial(remaining) * inner
    sign = (-1) ** (l - h + (l * (l - 1)) // 2)
    return sign * total / scale**l


# Reference constants for l = 4: leading joint-moment coefficients for
# derivative pairs (2, 1) (key n = 1) and (3, 2) (key n = 2), in factored
# form exactly as tabulated.  Equality checks elsewhere always compare
# evaluated Rationals, never factorizations.
REFERENCE_COEFFICIENTS: dict[tuple[int, int], FactoredConstant] = {
    (0, 1): FactoredConstant(1, ((31, 1), (2, -20), (3, -10), (5, -4), (7, -2), (11, -1), (13, -1))),
    (1, 1): FactoredConstant(1, ((71, 1), (2, -22), (3, -9), (5, -4), (7, -2), (11, -2), (13, -1), (17, -1))),
    (2, 1): FactoredConstant(1, ((43, 1), (3467, 1), (2, -24), (3, -10), (5, -5), (7, -4), (11, -2), (13, -1), (17, -1), (19, -1))),
    (3, 1): FactoredConstant(1, ((271, 1), (11483, 1), (2, -26), (3, -13), (5, -5), (7, -3), (11, -2), (13, -2), (17, -1), (19, -1))),
    (4, 1): FactoredConstant(1, ((103, 1), (413129, 1), (2, -28), (3, -12), (5, -5), (7, -3), (11, -2), (13, -2), (17, -1), (19, -1), (23, -1))),
    (0, 2): FactoredConstant(1, ((103, 1), (413129, 1), (2, -28), (3, -12), (5, -5), (7, -3), (11, -2), (13, -2), (17, -1), (19, -1), (23, -1))),
    (1, 2): FactoredConstant(1, ((58452853, 1), (2, -30), (3, -11), (5, -7), (7, -4), (11, -3), (13, -2), (17, -1), (19, -1))),
    (2, 2): FactoredConstant(1, ((67, 1), (85489981, 1), (2, -32), (3, -12), (5, -7), (7, -5), (11, -3), (13, -2), (17, -1), (19, -1), (23, -1))),
    (3, 2): FactoredConstant(1, ((71, 1), (389, 1), (139091, 1), (2, -34), (3, -8), (5, -6), (7, -5), (11, -3), (13, -2), (17, -2), (19, -1), (23, -1), (29, -1))),
    (4, 2): FactoredConstant(1, ((449, 1), (1721279377, 1), (2, -36), (3, -10), (5, -7), (7, -4), (11, -3), (13, -3), (17, -2), (19, -1), (23, -1), (31, -1))),
}


def coefficient_column(n: int) -> dict[int, Rational]:
    """All five reference coefficients h = 0..4 for derivative pair (n+1, n),
    n in {1, 2}; any other n raises KeyError."""
    return {h: REFERENCE_COEFFICIENTS[h, n].value() for h in range(5)}


def ratio_set_from_values(b: Mapping[int, Rational]) -> RatioSet:
    """Build the B(h) and A(h) ratio maps from coefficient values b[0..l],
    l = 4.

    B(h) = 4**(h-l) * b[h]/b[l]  (so B(l) = 1);
    A(h) = |(2h-1)/(2h-3)| * B(h-1)/B(h).

    The arithmetic factor multiplying every b cancels in both.
    """
    l = 4
    capB = {h: Fraction(4) ** (h - l) * Fraction(b[h]) / Fraction(b[l]) for h in range(l + 1)}
    A = {
        h: abs(Fraction(2 * h - 1, 2 * h - 3)) * capB[h - 1] / capB[h]
        for h in range(1, l + 1)
    }
    return RatioSet(capB=capB, A=A)


@dataclass(frozen=True)
class ArithmeticFactorEstimate:
    """Truncated Euler-product value with a conservative error estimate."""

    l: int
    value: float
    error_bound: float
    prime_cutoff: int

    def to_json_dict(self) -> dict:
        return {
            "l": self.l,
            "value": repr(self.value),
            "error_bound": repr(self.error_bound),
            "prime_cutoff": self.prime_cutoff,
            "inner_terms": INNER_TERMS,
        }


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


def arithmetic_factor(l: int, prime_cutoff: int = 100_000) -> ArithmeticFactorEstimate:
    """Truncated evaluation of the arithmetic factor

        c_l = prod_p (1 - 1/p)**(l**2) * sum_m C(m+l-1, m)**2 p**(-m)

    over primes p <= prime_cutoff, inner sum over m < M = INNER_TERMS.

    Error estimate combines (a) the inner-sum tail, bounded per prime by the
    first omitted term times a geometric majorant with ratio
    ((M+l)/(M+1))**2 / p, and (b) the omitted primes, where each factor's
    log is O(l**4 / p**2) (the 1/p terms cancel between the two pieces), so
    the tail is bounded by l**4 * sum_{n > cutoff} 1/n**2 < l**4 / cutoff.
    Crude but sufficient: nothing downstream consumes this value.

    A prime_cutoff above 10**8 (a 100 MB sieve), a product that underflows a
    float (l >= 21 at the default cutoff) and an error bound that is not
    below the value (l >= 17 at the default cutoff, or a cutoff far below
    l**4) raise ValueError.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not 2 <= prime_cutoff <= 10**8:
        raise ValueError(f"prime_cutoff must be in [2, 10**8], got {prime_cutoff}")
    m_cut = INNER_TERMS
    value = 1.0
    inner_tail_rel = 0.0
    for p in _primes_up_to(prime_cutoff):
        inv_p = 1.0 / p
        inner = 0.0
        term_weight = 1.0  # C(m+l-1, m)**2 * p**-m at current m
        for m in range(m_cut):
            if m > 0:
                term_weight *= ((m + l - 1) / m) ** 2 * inv_p
            inner += term_weight
        first_omitted = term_weight * ((m_cut + l - 1) / m_cut) ** 2 * inv_p
        ratio = ((m_cut + l) / (m_cut + 1)) ** 2 * inv_p
        if ratio < 1.0:
            inner_tail_rel += first_omitted / (1.0 - ratio) / inner
        else:  # from l = 28 at p = 2; the infinite bound is rejected below
            inner_tail_rel += float("inf")
        value *= (1.0 - inv_p) ** (l * l) * inner
        if value < sys.float_info.min:
            raise ValueError(f"the Euler product for l={l} underflows a float at p={p}")
    product_tail = l**4 / prime_cutoff
    try:
        error = value * math.expm1(inner_tail_rel + product_tail)
    except OverflowError:
        error = math.inf
    if not error < value:  # no correct digit; also an infinite bound
        raise ValueError(
            f"the error bound for l={l} at prime_cutoff={prime_cutoff} is {error:.3g},"
            f" not below the value {value:.3g}"
        )
    return ArithmeticFactorEstimate(
        l=l,
        value=value,
        error_bound=error,
        prime_cutoff=prime_cutoff,
    )
