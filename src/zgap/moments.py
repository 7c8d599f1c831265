"""Leading coefficients of joint moments of the characteristic-polynomial
analogue of Hardy's Z-function over the unitary group.

Contents:

* ``joint_moment_coefficient(h, l)`` — entry h of the (2, 1) column that
  `_column` computes for any derivative pair: about 0.8 ms at l = 4, 9 ms
  at l = 6 and 31 ms at l = 7, and 2.5 ms for the (3, 2) column at l = 4,
  in-process on a 2-vCPU Linux machine,
* ``coefficient_column(n)`` — reference constants for l = 4 and
  derivative pairs (2, 1) and (3, 2), exact literals; the certificates'
  `data_integrity` row checks every entry against `_column`,
* ``arithmetic_factor(l)`` — the Euler product c_l over the primes up to a
  cutoff, each prime's factor in closed form (an l-term polynomial in 1/p,
  by Euler's transformation of its 2F1), with an error estimate for the
  omitted primes.  It is contextual: no bound computation depends on it.

All coefficient computations are exact; only ``arithmetic_factor`` is
floating point.  The Kostka numbers of `_column` come from `zgap.arith`,
which `zgap.series` shares, so a `bounds`, `moments` or `arithfactor`
process loads neither `zgap.series` nor `zgap.lis`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import factorial  # bound by name: perfbench/tracer.py counts calls here
from typing import NamedTuple

# multinomial stays bound here, uncalled: perfbench/tracer.py counts it here
from .arith import DEFAULT_PRIME_CUTOFF, add_strip, multinomial  # noqa: F401


def _parity_split(m: list[int]) -> tuple[int, list[int], list[int]]:
    """(s * V, even, odd) for distinct decreasing m: its even and its odd
    parts, each still decreasing, V the product of their two Vandermonde
    products prod_{j<k} (x_j - x_k), and s the sign of the permutation that
    moves the even parts ahead of the odd ones."""
    even = [x for x in m if x % 2 == 0]
    odd = [x for x in m if x % 2]
    swaps = sum(x % 2 > y % 2 for i, x in enumerate(m) for y in m[i + 1:])
    vandermonde = math.prod(
        x - y for part in (even, odd) for i, x in enumerate(part) for y in part[i + 1:]
    )
    return (-vandermonde if swaps % 2 else vandermonde), even, odd


@lru_cache(maxsize=None)
def _column(pair: tuple[int, int], l: int) -> tuple[Fraction, ...]:
    """Entries h = 0..l of the column of derivative pair (n1, n2) = pair:
    the leading coefficient c(a), at N**(l**2 + 2|a|), of the U(N) average
    of prod_i Z^(a_i)(0)**2, for Z the real analogue of Hardy's Z-function
    and a = (n1,)*h + (n2,)*(l - h).  It is

        c(a) = (prod_i a_i!)**2 * sum_{kappa, kappa'} K(kappa, a) K(kappa', a)
               / (prod_j m_j! * prod_k m'_k!) * det[M(m_j + m'_k)]_{j,k=1..l}

    over the partitions kappa, kappa' of |a| into at most l parts, with K
    the Kostka numbers, m = kappa + (l-1, ..., 1, 0), and M(n) the integral
    of y**n over [-1/2, 1/2]: 1/(2**n (n+1)) for even n, 0 for odd n.  (The
    dual Cauchy identity gives the finite-N moment as a sum of squares over
    an l x N box of partitions, the HCIZ expansion each square's top degree,
    and Andreief's identity the determinant.)  Strips of a_1, a_2, ... cells
    reach kappa K(kappa, a) times in any order: the n1 strips serve every h.

    As M vanishes at odd n, putting the even parts of m and m' ahead of the
    odd ones (`_parity_split`) makes the matrix block diagonal: its
    determinant is 0 unless m and m' have as many even parts, and otherwise
    2**-(|m| + |m'|) times a Cauchy determinant for each parity,

        det[1/(x_j + y_k + 1)] = prod_{j<k} (x_j - x_k)(y_j - y_k)
                                 / prod_{j,k} (x_j + y_k + 1).

    Each unordered pair is summed once, at weight 2 off the diagonal.  The
    terms share one integer denominator: m_j <= top + 1 - j for top = |a| +
    l - 1, so prod_j m_j! divides top! (top-1)! ... (top-l+1)!, and the
    factors of a Cauchy denominator are odd, at most 2*top + 1, and distinct
    within a row, so it divides (1 * 3 * ... * (2*top + 1))**l."""
    n1, n2 = pair
    column = []
    firsts = {(): 1}  # K(kappa, (n1,)*h) for every kappa
    for h in range(l + 1):
        if h:
            firsts = add_strip(firsts, n1, l)
        kostka = firsts  # K is symmetric in the content's order
        for _ in range(l - h):
            kostka = add_strip(kostka, n2, l)
        size = n1 * h + n2 * (l - h)
        top = size + l - 1
        factorials = math.prod(factorial(top - j) for j in range(l))
        odd_powers = math.prod(range(1, 2 * top + 2, 2)) ** l
        members = []  # (integer weight, even parts, odd parts) of each kappa
        for kappa, count in kostka.items():
            m = [part + l - 1 - j for j, part in enumerate(kappa + (0,) * (l - len(kappa)))]
            signed, even, odd = _parity_split(m)
            weight = count * signed * (factorials // math.prod(map(factorial, m)))
            members.append((weight, even, odd))
        total = 0
        for i, (u, even, odd) in enumerate(members):
            for j in range(i, len(members)):
                w, even2, odd2 = members[j]
                if len(even2) == len(even):
                    cauchy = math.prod([x + y + 1 for x in even for y in even2]
                                       + [x + y + 1 for x in odd for y in odd2])
                    total += (1 if i == j else 2) * u * w * (odd_powers // cauchy)
        scale = factorial(n1) ** h * factorial(n2) ** (l - h)
        denominator = factorials * factorials * odd_powers << 2 * (size + l * (l - 1) // 2)
        column.append(Fraction(total * scale * scale, denominator))
    return tuple(column)


def joint_moment_coefficient(h: int, l: int) -> Fraction:
    """Entry h of `_column((2, 1), l)`: the exact leading coefficient of the
    joint moment with h derivatives of order 2 and l - h of order 1."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not 0 <= h <= l:
        raise ValueError(f"need 0 <= h <= l, got h={h}, l={l}")
    return _column((2, 1), l)[h]


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
    """The primes p <= n, for n >= 2 (`arithmetic_factor` checks that): 2,
    then the odd primes from a sieve of the odd numbers alone, in which
    index i stands for 2i + 1, so an odd p strikes p*p, p*p + 2p, ... at
    every p-th index from p*p // 2."""
    sieve = bytearray(b"\x01") * ((n + 1) // 2)
    sieve[0] = 0
    for p in range(3, math.isqrt(n) + 1, 2):
        if sieve[p // 2]:
            start = p * p // 2
            sieve[start::p] = bytes((len(sieve) - 1 - start) // p + 1)
    return [2, *compress(count(1, 2), sieve)]


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
    # highest power first, for Horner; C(90, 45)**2 < 2e52 fits a float,
    # converted once here as `poly * inv_p + c` would convert it each time
    coeffs = [float(math.comb(l - 1, k) ** 2) for k in reversed(range(l))]
    power, smallest = (l - 1) ** 2, sys.float_info.min
    value = 1.0
    for p in _primes_up_to(prime_cutoff):
        inv_p = 1.0 / p
        poly = 0.0
        for c in coeffs:
            poly = poly * inv_p + c
        value *= (1.0 - inv_p) ** power * poly
        if value < smallest:
            raise ValueError(f"the Euler product for l={l} underflows a float at p={p}")
    return ArithmeticFactorEstimate(
        l=l,
        value=value,
        error_bound=value * math.expm1(l**4 / prime_cutoff),
        prime_cutoff=prime_cutoff,
    )
