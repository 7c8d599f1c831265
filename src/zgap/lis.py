"""Counting permutations by the length of their longest increasing
subsequence (LIS).

The number of permutations of {1..n} whose LIS has length at most l is
computed by three independent routes so each can serve as an oracle for the
others:

* ``count_by_enumeration(l, n)`` — patience sorting of every permutation,
  counted by a transfer over the pile tops instead of listing the n!
  permutations one by one (n <= 9),
* ``count_by_tableaux(l, n)`` — a sum of squared standard-tableau counts
  over partitions with first part at most l (Robinson-Schensted: the LIS
  length of a permutation equals the first-row length of its insertion
  tableau),
* ``count_by_series(l, n)`` — the Toeplitz determinant generating function
  from `zgap.series`.

The partition and hook-length helpers here are also consumed by the
unitary-group averages in `zgap.series`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import factorial  # bound by name: perfbench/tracer.py counts calls here
from typing import Iterator, Sequence

# Largest n with an `enumeration` entry in the `lis` table.  It pins the
# table's columns, not the cost: the transfer is cheap well past n = 9, but
# a higher limit would change `lis --max-n` output above 9.
ENUMERATION_LIMIT = 9


@lru_cache(maxsize=None)
def _lis_length_counts(n: int) -> tuple[int, ...]:
    """counts[k] = number of permutations of 1..n with LIS length exactly k
    (index 0 unused), by patience sorting every permutation at once.

    Deal the values left to right.  After k values the state is the sorted
    tuple of the ranks of the pile tops among those k values, weighted by
    the number of permutations of k that reach it.  The next value takes
    each relative rank r in 0..k once: the ranks >= r shift up by one, and
    r replaces the first top >= r or opens a new pile.  There are at most
    2**(n-1) states, against n! permutations."""
    states = {(): 1}
    for k in range(n):
        dealt: dict[tuple[int, ...], int] = {}
        for tops, weight in states.items():
            for r in range(k + 1):
                i = bisect_left(tops, r)
                key = tops[:i] + (r,) + tuple(t + 1 for t in tops[i + 1 :])
                dealt[key] = dealt.get(key, 0) + weight
        states = dealt
    counts = [0] * (n + 1)
    for tops, weight in states.items():
        counts[len(tops)] += weight
    return tuple(counts)


def count_by_enumeration(l: int, n: int) -> int:
    """T(n) for LIS length <= l, by patience sorting every permutation of
    1..n through the pile-top transfer of `_lis_length_counts`."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration capped at n <= {ENUMERATION_LIMIT}, got {n}"
        )
    if n == 0:
        return 1
    counts = _lis_length_counts(n)
    return sum(counts[1 : min(l, n) + 1])


def partitions_max_part(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with every part <= max_part, parts weakly decreasing,
    generated in lexicographically decreasing order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_max_part(n - first, first):
            yield (first,) + rest


def partitions_max_length(n: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into at most max_len parts: the partitions of n,
    in the order of `partitions_max_part`, filtered by length."""
    for shape in partitions_max_part(n, n if n > 0 else 1):
        if len(shape) <= max_len:
            yield shape


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


def count_by_tableaux(l: int, n: int) -> int:
    """T(n) for LIS length <= l as sum over partitions of n with first part
    <= l of the squared standard-tableau count."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(standard_tableaux(shape) ** 2 for shape in partitions_max_part(n, l))


def count_by_series(l: int, n: int) -> int:
    """T(n) read off the Toeplitz determinant generating function:
    (n!)^2 times the degree-n coefficient.  A non-integral product signals a
    series bug and raises.

    For l >= n every permutation of 1..n counts, T_l(n) = T_n(n) = n!, so the
    degree-n coefficient of the l x l determinant equals that of the
    min(l, n) x min(l, n) one, which is still a determinant route.  Building
    the smaller one keeps the cost at min(l, n): the Laplace expansion
    memoises every column subset, 2**l entries."""
    from . import series  # deferred; series imports this module at top level

    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    det = series.toeplitz_determinant(max(1, min(l, n)), n + 1)
    coeff = det.coefficient(Fraction(n))
    value = coeff * factorial(n) ** 2
    if value.denominator != 1:
        raise ArithmeticError(
            f"series count for l={l}, n={n} is non-integral: {value}"
        )
    return value.numerator
