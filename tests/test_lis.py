"""Restricted-permutation counts: three routes, one answer."""

import time
from bisect import bisect_left
from itertools import permutations
from math import factorial

import pytest

from zgap.lis import (
    _lis_length_counts,
    count_by_enumeration,
    count_by_series,
    count_by_tableaux,
    partitions_max_part,
    standard_tableaux,
)
from zgap.series import toeplitz_determinant


def test_enumeration_examples():
    assert count_by_enumeration(2, 3) == 5
    assert count_by_enumeration(1, 4) == 1
    assert count_by_enumeration(5, 4) == 24


def patience_piles(perm):
    """Number of piles patience sorting deals `perm` into, which is the
    length of its longest strictly increasing subsequence."""
    piles = []
    for x in perm:
        i = bisect_left(piles, x)
        if i == len(piles):
            piles.append(x)
        else:
            piles[i] = x
    return len(piles)


def lis_length_counts_oracle(n):
    """counts[k] = permutations of 1..n with LIS length k, by patience
    sorting each of the n! permutations in turn."""
    counts = [0] * (n + 1)
    for perm in permutations(range(1, n + 1)):
        counts[patience_piles(perm)] += 1
    return tuple(counts)


@pytest.mark.parametrize("n", range(10))
def test_pile_transfer_matches_listing_every_permutation(n):
    assert _lis_length_counts(n) == lis_length_counts_oracle(n)


def test_pile_transfer_matches_tableaux_through_fourteen():
    for n in range(1, 15):
        counts = _lis_length_counts(n)
        for l in range(1, n + 1):
            assert sum(counts[1 : l + 1]) == count_by_tableaux(l, n)


def test_enumeration_cost_guard():
    with pytest.raises(ValueError):
        count_by_enumeration(2, 10)


def test_partition_validation():
    assert standard_tableaux((3, 1, 1)) == 6
    with pytest.raises(ValueError):
        standard_tableaux((1, 2))
    with pytest.raises(ValueError):
        standard_tableaux((2, 0))


def enumerate_tableaux(shape):
    """Count standard Young tableaux by brute-force filling (small shapes)."""
    n = sum(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]

    def grows(filling):
        by_cell = dict(zip(cells, filling))
        for (i, j), value in by_cell.items():
            if (i, j + 1) in by_cell and by_cell[(i, j + 1)] < value:
                return False
            if (i + 1, j) in by_cell and by_cell[(i + 1, j)] < value:
                return False
        return True

    return sum(1 for filling in permutations(range(1, n + 1)) if grows(filling))


def test_hook_length_examples():
    assert standard_tableaux([4]) == 1
    assert standard_tableaux([2, 1]) == enumerate_tableaux((2, 1)) == 2
    assert standard_tableaux([2, 2]) == enumerate_tableaux((2, 2)) == 2
    assert standard_tableaux((3, 2)) == enumerate_tableaux((3, 2))
    assert standard_tableaux([]) == 1


def test_hook_length_matches_enumeration_for_small_shapes():
    for n in range(1, 7):
        for shape in partitions_max_part(n, n):
            assert standard_tableaux(shape) == enumerate_tableaux(shape)


def test_rsk_completeness():
    # sum over all partitions of n of f^2 equals n!
    for n in range(11):
        total = sum(
            standard_tableaux(shape) ** 2
            for shape in partitions_max_part(n, max(n, 1))
        )
        assert total == factorial(n)


def conjugate(shape):
    out = []
    i = 1
    while True:
        size = sum(1 for p in shape if p >= i)
        if size == 0:
            return tuple(out)
        out.append(size)
        i += 1


def test_partition_generators_agree():
    # conjugation swaps the max-part-bounded and max-length-bounded families
    for n in range(9):
        by_part = set(partitions_max_part(n, 3))
        by_len = {s for s in partitions_max_part(n, n) if len(s) <= 3}
        assert by_part == {conjugate(s) for s in by_len}


def catalan(n):
    values = [1]
    for m in range(n):
        values.append(sum(values[i] * values[m - i] for i in range(m + 1)))
    return values[n]


def test_tableaux_count_examples():
    assert count_by_tableaux(2, 6) == catalan(6) == 132
    assert count_by_tableaux(3, 4) == count_by_enumeration(3, 4) == 23
    for l in (1, 2, 5):
        assert count_by_tableaux(l, 0) == 1


def test_series_count_examples():
    assert count_by_series(2, 3) == 5
    assert count_by_series(4, 4) == 24
    assert count_by_series(3, 8) == count_by_tableaux(3, 8)


def test_series_count_far_above_n_is_fast():
    start = time.perf_counter()
    assert count_by_series(20, 2) == 2
    assert time.perf_counter() - start < 1.0


def test_series_count_matches_the_full_determinant_above_n():
    # for l > n the count reads a min(l, n) determinant; the l x l one must agree
    for l in range(2, 9):
        for n in range(1, l):
            full = toeplitz_determinant(l, n + 1).coeffs[n]
            assert count_by_series(l, n) == full * factorial(n) ** 2 == factorial(n)


def test_three_way_agreement_sample():
    for l in (1, 2, 3):
        for n in range(8):
            rsk = count_by_tableaux(l, n)
            assert rsk == count_by_enumeration(l, n)
            assert rsk == count_by_series(l, n)


def test_catalan_through_fourteen():
    for n in range(15):
        assert count_by_tableaux(2, n) == catalan(n)


def test_monotonicity_in_l():
    for n in range(1, 8):
        for l in range(1, 8):
            smaller, larger = count_by_tableaux(l, n), count_by_tableaux(l + 1, n)
            assert smaller <= larger
            if l >= n:
                assert smaller == larger == factorial(n)
            else:
                assert smaller < larger
