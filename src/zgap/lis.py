"""Counting permutations by the length of their longest increasing
subsequence (LIS).

The number T_l(n) of permutations of {1..n} whose LIS has length at most l
is computed by three independent routes so each can serve as an oracle for
the others.  Each route returns the whole column T_l(0), ..., T_l(max_n)
from one computation:

* ``count_by_enumeration(l, max_n)`` — patience sorting of every
  permutation, counted by one transfer over the pile tops instead of
  listing the n! permutations one by one (max_n <= 9),
* ``count_by_tableaux(l, max_n)`` — squared standard-tableau counts over
  Young's lattice up to l rows (Robinson-Schensted), read off the U(l)
  average ``series.unitary_average(l, 0)`` (Gessel's identity),
* ``count_by_series(l, max_n)`` — the coefficients of one Toeplitz
  determinant generating function from `zgap.series`, whose grid is at
  most max_n x max_n whatever l is.
"""

from __future__ import annotations

from math import factorial  # bound by name: perfbench/tracer.py counts calls here

from . import series

# Largest n with an `enumeration` entry in the `lis` table.  It pins the
# table's columns, not the cost: the transfer is cheap well past n = 9, but
# a higher limit would change `lis --max-n` output above 9.
ENUMERATION_LIMIT = 9


def _check_column(l: int, max_n: int) -> None:
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")


def count_by_enumeration(l: int, max_n: int) -> list[int]:
    """T_l(0..max_n) by patience sorting every permutation at once.

    Deal the values left to right.  After k values the state is a bitmask
    whose bit j is set when the value of rank j among those k is a pile
    top, weighted by the number of permutations of k that reach it.  The
    next value takes each relative rank r in 0..k once: the bits below r
    stay, the bits at or above r move up by one, bit r is set, and the
    lowest set bit above r is cleared, the top that r replaces; with none
    above, r opens a new pile.  A pile never goes away, so a state with l
    piles that would open another, and everything dealt from it after,
    has more than l: dropping it leaves T_l(k) the weight of the states
    kept, exactly.  There are at most 2**(k-1) states, against k!
    permutations."""
    _check_column(l, max_n)
    if max_n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at max_n <= {ENUMERATION_LIMIT}, got {max_n}")
    states = {0: 1}
    column = [1]
    for k in range(max_n):
        dealt: dict[int, int] = {}
        for tops, weight in states.items():
            full = tops.bit_count() == l
            for r in range(k + 1):
                above = tops >> r << (r + 1)
                if above:
                    above &= above - 1
                elif full:
                    continue
                key = (tops & ((1 << r) - 1)) | (1 << r) | above
                dealt[key] = dealt.get(key, 0) + weight
        states = dealt
        column.append(sum(states.values()))
    return column


def _integer_column(l: int, generating: series.HalfPowerSeries) -> list[int]:
    """(n!)**2 times coefficient n of a series from x**0; a non-integral
    product signals a series bug and raises."""
    column = []
    for n, coefficient in enumerate(generating.coeffs):
        value = coefficient * factorial(n) ** 2
        if value.denominator != 1:
            raise ArithmeticError(f"count for l={l}, n={n} is non-integral: {value}")
        column.append(value.numerator)
    return column


def count_by_tableaux(l: int, max_n: int) -> list[int]:
    """T_l(0..max_n) read off the U(l) average of exp(z * Tr(U + U^dagger))
    with max_n + 1 terms, whose character sum gives T_l(n)/(n!)**2."""
    _check_column(l, max_n)
    return _integer_column(l, series.unitary_average(l, 0, max_n + 1))


def count_by_series(l: int, max_n: int) -> list[int]:
    """T_l(0..max_n) read off one Toeplitz determinant generating function
    with max_n + 1 terms, whose grid `series.toeplitz_determinant` caps at
    max_n x max_n."""
    _check_column(l, max_n)
    return _integer_column(l, series.toeplitz_determinant(l, max_n + 1))
