"""Counting permutations by the length of their longest increasing
subsequence (LIS).

The number T_l(n) of permutations of {1..n} whose LIS has length at most l
is computed by three independent routes so each can serve as an oracle for
the others.  Each route returns the whole column T_l(0), ..., T_l(max_n)
from one computation:

* ``count_by_enumeration(l, max_n)`` — patience sorting of every
  permutation, counted by one transfer over the pile tops instead of
  listing the n! permutations one by one (max_n <= 9),
* ``count_by_tableaux(l, max_n)`` — for each n, a sum of squared
  standard-tableau counts over partitions with first part at most l
  (Robinson-Schensted: the LIS length of a permutation equals the
  first-row length of its insertion tableau),
* ``count_by_series(l, max_n)`` — the coefficients of one Toeplitz
  determinant generating function from `zgap.series`.

The partition and hook-length helpers here are also consumed by the
unitary-group averages in `zgap.series`.
"""

from __future__ import annotations

from bisect import bisect_left
from math import factorial  # bound by name: perfbench/tracer.py counts calls here
from typing import Iterator, Sequence

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

    Deal the values left to right.  After k values the state is the sorted
    tuple of the ranks of the pile tops among those k values, weighted by
    the number of permutations of k that reach it; T_l(k) is the weight of
    the states with at most l piles.  The next value takes each relative
    rank r in 0..k once: the ranks >= r shift up by one, and r replaces the
    first top >= r or opens a new pile.  There are at most 2**(k-1) states,
    against k! permutations."""
    _check_column(l, max_n)
    if max_n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration capped at max_n <= {ENUMERATION_LIMIT}, got {max_n}")
    states = {(): 1}
    column = [1]
    for k in range(max_n):
        dealt: dict[tuple[int, ...], int] = {}
        for tops, weight in states.items():
            for r in range(k + 1):
                i = bisect_left(tops, r)
                key = tops[:i] + (r,) + tuple(t + 1 for t in tops[i + 1 :])
                dealt[key] = dealt.get(key, 0) + weight
        states = dealt
        column.append(sum(weight for tops, weight in states.items() if len(tops) <= l))
    return column


def partitions_max_part(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with every part <= max_part, parts weakly decreasing,
    generated in lexicographically decreasing order: fill the rest of n
    greedily with the largest parts allowed, then drop the trailing 1s and
    lower the last part left.  No recursion, so there is no limit on the
    number of parts."""
    if n < 0 or (n > 0 and max_part < 1):
        return
    parts: list[int] = []
    rest = n
    while True:
        while rest:
            parts.append(min(rest, parts[-1] if parts else max_part))
            rest -= parts[-1]
        yield tuple(parts)
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return
        parts[-1] -= 1
        rest += 1


def standard_tableaux(shape: Sequence[int]) -> int:
    """Number of standard Young tableaux of the given shape, by the hook
    length formula: weight! / prod(hook lengths).  Always an exact integer.
    The shape must be a partition: positive, weakly decreasing parts.
    """
    parts = tuple(shape)
    if any(p <= 0 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"a shape needs positive, weakly decreasing parts, got {parts}")
    n = sum(parts)
    if n == 0:
        return 1
    hook_product = 1
    for i, row in enumerate(parts):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in parts[i + 1 :] if r > j)
            hook_product *= arm + leg + 1
    count, rem = divmod(factorial(n), hook_product)
    if rem:
        raise ArithmeticError(f"hook product does not divide {n}! for {parts}")
    return count


def count_by_tableaux(l: int, max_n: int) -> list[int]:
    """T_l(0..max_n), each T_l(n) the sum over partitions of n with first
    part <= l of the squared standard-tableau count."""
    _check_column(l, max_n)
    return [
        sum(standard_tableaux(shape) ** 2 for shape in partitions_max_part(n, l))
        for n in range(max_n + 1)
    ]


def count_by_series(l: int, max_n: int) -> list[int]:
    """T_l(0..max_n) read off one Toeplitz determinant generating function:
    T_l(n) is (n!)^2 times coeffs[n] of `series.toeplitz_determinant` with
    max_n + 1 terms, whose series starts at x**0, so coeffs[n] is the
    coefficient of x**n.  A non-integral product signals a series bug and
    raises.

    For l >= max_n every permutation of 1..n, n <= max_n, counts, T_l(n) =
    n!, so the column of the l x l determinant equals that of the
    min(l, max_n) x min(l, max_n) one, which is still a determinant route.
    Building the smaller one keeps the cost at min(l, max_n): the Laplace
    expansion memoises every column subset, 2**l entries."""
    from . import series  # deferred; series imports this module at top level

    _check_column(l, max_n)
    det = series.toeplitz_determinant(max(1, min(l, max_n)), max_n + 1)
    column = []
    for n, coefficient in enumerate(det.coeffs):
        value = coefficient * factorial(n) ** 2
        if value.denominator != 1:
            raise ArithmeticError(f"series count for l={l}, n={n} is non-integral: {value}")
        column.append(value.numerator)
    return column
