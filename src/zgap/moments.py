"""Leading coefficients of joint moments of the characteristic-polynomial
analogue of Hardy's Z-function over the unitary group.

Contents:

* ``joint_moment_coefficient(h, l)`` — the exact coefficient for derivative
  pair (2, 1).  Its partition-sum formula is a double sum over
  compositions weighted by a Vandermonde product; by the Andreief /
  Cauchy-Binet mechanism of Conrey-Rubinstein-Snaith it collapses to one
  l x l Hankel determinant of two-variable Bessel-type series, which
  `zgap.series.bessel_determinant` computes exactly.  One determinant,
  truncated at weight 4l, serves every h = 0..l of a column: the l = 4
  column takes under 10 ms and l = 6 about 0.2 s, in-process on a 2-vCPU
  Linux machine,
* ``coefficient_column(n)`` — reference constants for l = 4 and
  derivative pairs (2, 1) and (3, 2), exact literals; the (2, 1)
  column is independently reproducible via the partition sum, the (3, 2)
  column enters purely as reference data (no printed formula exists for it,
  so nothing is extrapolated),
* ``arithmetic_factor(l)`` — the Euler product c_l over the primes up to a
  cutoff, each prime's factor in closed form (an l-term polynomial in 1/p,
  by Euler's transformation of its 2F1), with an error estimate for the
  omitted primes.  It is contextual: no bound computation depends on it.

All coefficient computations are exact; only ``arithmetic_factor`` is
floating point.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial  # bound by name: perfbench/tracer.py counts calls here
from typing import NamedTuple

# multinomial is no longer called here; it stays bound in this module
# because perfbench/tracer.py counts its calls where moments binds it.
from .arith import DEFAULT_PRIME_CUTOFF, multinomial  # noqa: F401
from .series import bessel_determinant


@lru_cache(maxsize=None)
def _column(l: int) -> tuple[tuple[Fraction, ...], ...]:
    """det[G_{2l-i-j}] (i = 0..l-1, j = 1..l) truncated at top = 4l with
    s-degree 2l: the determinant that every h = 0..l of column l reads."""
    orders = [[2 * l - i - j for j in range(1, l + 1)] for i in range(l)]
    return bessel_determinant(orders, 4 * l, 2 * l)


@lru_cache(maxsize=None)
def joint_moment_coefficient(h: int, l: int) -> Fraction:
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
    one Hankel determinant det[G_{2l-i-j}] (orders 1..2l-1) of the
    two-variable Bessel-type series

        G_n(s, t) = sum_{a, m >= 0} s**a t**m / (a! m! (n + m + 2a)!),

    and the m_0 sum is exp(-t/2):

        S(h, l) = sign * sum_k C(2h, k) k! R_k!
                  * [s**k t**R_k] exp(-t/2) * det[G_{2l-i-j}].

    Every coefficient read lies on 2*deg_s + deg_t = 2l + 2h <= 4l.
    Truncating at a weight is a ring map, so each such coefficient is the
    same in the determinant truncated at 4l with s-degree 2l, which
    `_column(l)` builds once for all h of the column.  It is exact, with
    common denominator Q**l, Q = (4l)! (6l-1)!.  The formula is specific
    to the (2, 1) derivative pair; other pairs are not computed here.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not 0 <= h <= l:
        raise ValueError(f"need 0 <= h <= l, got h={h}, l={l}")
    top = 2 * l + 2 * h
    det = _column(l)
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


# Reference constants for l = 4: leading joint-moment coefficients for
# derivative pairs (2, 1) (key n = 1) and (3, 2) (key n = 2), keyed (h, n),
# each written in the prime-power form in which it is tabulated.
REFERENCE_COEFFICIENTS: dict[tuple[int, int], Fraction] = {
    (0, 1): Fraction(31, 2**20 * 3**10 * 5**4 * 7**2 * 11 * 13),
    (1, 1): Fraction(71, 2**22 * 3**9 * 5**4 * 7**2 * 11**2 * 13 * 17),
    (2, 1): Fraction(43 * 3467, 2**24 * 3**10 * 5**5 * 7**4 * 11**2 * 13 * 17 * 19),
    (3, 1): Fraction(271 * 11483, 2**26 * 3**13 * 5**5 * 7**3 * 11**2 * 13**2 * 17 * 19),
    (4, 1): Fraction(103 * 413129, 2**28 * 3**12 * 5**5 * 7**3 * 11**2 * 13**2 * 17 * 19 * 23),
    (0, 2): Fraction(103 * 413129, 2**28 * 3**12 * 5**5 * 7**3 * 11**2 * 13**2 * 17 * 19 * 23),
    (1, 2): Fraction(58452853, 2**30 * 3**11 * 5**7 * 7**4 * 11**3 * 13**2 * 17 * 19),
    (2, 2): Fraction(67 * 85489981, 2**32 * 3**12 * 5**7 * 7**5 * 11**3 * 13**2 * 17 * 19 * 23),
    (3, 2): Fraction(71 * 389 * 139091, 2**34 * 3**8 * 5**6 * 7**5 * 11**3 * 13**2 * 17**2 * 19 * 23 * 29),
    (4, 2): Fraction(449 * 1721279377, 2**36 * 3**10 * 5**7 * 7**4 * 11**3 * 13**3 * 17**2 * 19 * 23 * 31),
}


def coefficient_column(n: int) -> dict[int, Fraction]:
    """All five reference coefficients h = 0..4 for derivative pair (n+1, n),
    n in {1, 2}, as a fresh dict; any other n raises KeyError."""
    return {h: REFERENCE_COEFFICIENTS[h, n] for h in range(5)}


class ArithmeticFactorEstimate(NamedTuple):
    """Euler-product value over the primes up to prime_cutoff, with a
    conservative estimate of the error from the omitted primes."""

    l: int
    value: float
    error_bound: float
    prime_cutoff: int


def _primes_up_to(n: int) -> list[int]:
    """The primes p <= n, for n >= 2 (`arithmetic_factor` checks that)."""
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


def _below_ln2(x: Fraction) -> bool:
    """Whether x < ln 2, exactly: the partial sums s_K of ln 2 = sum_{k>=1}
    1/(k * 2**k) bracket it, s_K < ln 2 < s_K + 1/((K+1) * 2**K), and ln 2
    is irrational, so a long enough sum puts any rational x outside."""
    partial, power, k = Fraction(0), Fraction(1), 0
    while partial <= x < partial + power / (k + 1):
        k, power = k + 1, power / 2
        partial += power / k
    return x < partial


def arithmetic_factor(
    l: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> ArithmeticFactorEstimate:
    """The arithmetic factor

        c_l = prod_p (1 - 1/p)**(l**2) * sum_m C(m+l-1, m)**2 p**(-m)

    over primes p <= prime_cutoff, each factor in closed form.  The inner
    sum is 2F1(l, l; 1; x) at x = 1/p, and Euler's transformation (DLMF
    15.8.1) makes it (1 - x)**(1 - 2l) * sum_{k<l} C(l-1, k)**2 x**k, so
    the factor of p is exactly

        f_p = (1 - 1/p)**((l-1)**2) * sum_{k<l} C(l-1, k)**2 p**(-k).

    The error estimate covers the omitted primes alone: |log f_p| <=
    l**4 / p**2 (the 1/p terms cancel), so the tail of the log-product
    is below l**4 * sum_{n > cutoff} 1/n**2 < l**4 / cutoff, and
    error = value * expm1(l**4 / cutoff).  Crude but sufficient: nothing
    downstream consumes this value.

    A prime_cutoff above 10**8 (a 100 MB sieve), an error bound that is not
    below the value (l**4 / cutoff >= ln 2: l >= 17 at the default cutoff,
    l >= 92 at any allowed one), both checked before the sieve, and a
    product that underflows a float raise ValueError.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not 2 <= prime_cutoff <= 10**8:
        raise ValueError(f"prime_cutoff must be in [2, 10**8], got {prime_cutoff}")
    if not _below_ln2(Fraction(l * l * l * l, prime_cutoff)):
        raise ValueError(
            f"the error bound for l={l} at prime_cutoff={prime_cutoff} is not below"
            f" the value, since l**4 >= prime_cutoff * ln 2"
        )
    # highest power first, for Horner; C(90, 45)**2 < 2e52 fits a float
    coeffs = [math.comb(l - 1, k) ** 2 for k in reversed(range(l))]
    value = 1.0
    for p in _primes_up_to(prime_cutoff):
        inv_p = 1.0 / p
        poly = 0.0
        for c in coeffs:
            poly = poly * inv_p + c
        value *= (1.0 - inv_p) ** ((l - 1) ** 2) * poly
        if value < sys.float_info.min:
            raise ValueError(f"the Euler product for l={l} underflows a float at p={p}")
    return ArithmeticFactorEstimate(
        l=l,
        value=value,
        error_bound=value * math.expm1(l**4 / prime_cutoff),
        prime_cutoff=prime_cutoff,
    )
