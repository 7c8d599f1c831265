"""Restricted-permutation counts: three routes, one answer."""

import time
from bisect import bisect_left
from itertools import permutations
from math import factorial

import pytest

from oracles import catalan_numbers, hook_product_by_leg_scan, partitions_by_recursion
from zgap import series
from zgap.lis import (
    ENUMERATION_LIMIT,
    count_by_enumeration,
    count_by_series,
    count_by_tableaux,
)
from zgap.arith import partitions_max_part
from zgap.series import HalfPowerSeries, SeriesMatrix, standard_tableaux


def test_enumeration_examples():
    assert count_by_enumeration(2, 3) == [1, 1, 2, 5]
    assert count_by_enumeration(1, 4) == [1, 1, 1, 1, 1]
    assert count_by_enumeration(5, 4) == [1, 1, 2, 6, 24]


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
    counts = lis_length_counts_oracle(n)
    for l in range(1, 11):
        assert count_by_enumeration(l, 9)[n] == sum(counts[: l + 1])


def test_enumeration_cost_guard():
    assert len(count_by_enumeration(2, ENUMERATION_LIMIT)) == ENUMERATION_LIMIT + 1
    with pytest.raises(ValueError, match="enumeration capped"):
        count_by_enumeration(2, ENUMERATION_LIMIT + 1)


@pytest.mark.parametrize("route", [count_by_enumeration, count_by_tableaux, count_by_series])
def test_every_route_counts_at_most_l_piles(route):
    # only the identity permutation has an increasing subsequence of length n
    for n in range(2, ENUMERATION_LIMIT + 1):
        assert route(n - 1, n)[n] == factorial(n) - 1
        assert route(n, n)[n] == factorial(n)


@pytest.mark.parametrize("route", [count_by_enumeration, count_by_tableaux, count_by_series])
def test_every_route_checks_its_range(route):
    assert route(1, 0) == [1]
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        route(1, -1)
    with pytest.raises(ValueError, match="l must be >= 1"):
        route(0, 0)


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


def test_hook_rule_matches_the_leg_scan():
    for n in range(21):
        for shape in partitions_max_part(n, n):
            assert standard_tableaux(shape) * hook_product_by_leg_scan(shape) == factorial(n)


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


def test_partitions_follow_the_recursive_order():
    for n in range(-1, 23):
        for max_part in range(-1, n + 2):
            assert list(partitions_max_part(n, max_part)) == list(
                partitions_by_recursion(n, max_part)
            )


def test_partitions_need_no_recursion_per_part():
    # both exceed the interpreter's recursion limit on a recursive generator
    assert list(partitions_max_part(5000, 1)) == [(1,) * 5000]
    twos = list(partitions_max_part(2000, 2))
    assert len(twos) == 1001
    assert twos[0] == (2,) * 1000 and twos[-1] == (1,) * 2000


def test_partition_generators_agree():
    # conjugation swaps the max-part-bounded and max-length-bounded families
    for n in range(9):
        by_part = set(partitions_max_part(n, 3))
        by_len = {s for s in partitions_max_part(n, n) if len(s) <= 3}
        assert by_part == {conjugate(s) for s in by_len}


def test_tableaux_count_examples():
    assert count_by_tableaux(2, 6)[6] == catalan_numbers(7)[6] == 132
    assert count_by_tableaux(3, 4)[4] == count_by_enumeration(3, 4)[4] == 23
    for l in (1, 2, 5):
        assert count_by_tableaux(l, 0) == [1]


def test_series_count_examples():
    assert count_by_series(2, 3)[3] == 5
    assert count_by_series(4, 4)[4] == 24
    assert count_by_series(3, 8) == count_by_tableaux(3, 8)


def test_series_count_far_above_n_is_fast():
    start = time.perf_counter()
    assert count_by_series(20, 2) == [1, 1, 2]
    assert time.perf_counter() - start < 1.0


def test_long_one_row_and_one_column_shapes_are_fast():
    # a leg scan over every row below each cell takes k**2/2 steps here
    for shape in ((1,) * 10000, (10000,)):
        start = time.perf_counter()
        assert standard_tableaux(shape) == 1
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("route, source", [
    (count_by_tableaux, "unitary_average"),
    (count_by_series, "toeplitz_determinant"),
])
def test_every_series_route_rejects_a_non_integral_count(route, source, monkeypatch):
    # the last argument of either source is its number of terms
    monkeypatch.setattr(
        series, source, lambda l, *args: HalfPowerSeries(0, (1, 1, "1/3")[: args[-1]])
    )
    assert route(3, 1) == [1, 1]
    with pytest.raises(ArithmeticError, match="l=3, n=2 is non-integral: 4/3"):
        route(3, 2)


def test_series_count_matches_the_full_determinant_above_n():
    # for l > max_n the column reads a max_n x max_n determinant; the l x l
    # grid must agree
    for l in range(2, 9):
        for max_n in range(1, l):
            full = SeriesMatrix("toeplitz", l, max_n).determinant()
            assert count_by_series(l, max_n) == [
                c * factorial(n) ** 2 for n, c in enumerate(full)
            ] == [factorial(n) for n in range(max_n + 1)]


def test_series_column_at_and_above_l():
    # l = max_n and l = max_n + 1 read the same max_n x max_n determinant,
    # and max_n = 0 reads the 1 x 1 one
    for max_n in range(1, 7):
        every = [factorial(n) for n in range(max_n + 1)]
        assert count_by_series(max_n, max_n) == count_by_series(max_n + 1, max_n) == every
    for l in (1, 2, 5):
        assert count_by_series(l, 0) == [1]


def test_three_way_agreement_sample():
    for l in (1, 2, 3):
        rsk = count_by_tableaux(l, 7)
        assert rsk == count_by_enumeration(l, 7)
        assert rsk == count_by_series(l, 7)


def test_catalan_through_fourteen():
    assert count_by_tableaux(2, 14) == catalan_numbers(15)


def test_monotonicity_in_l():
    for l in range(1, 8):
        column, next_column = count_by_tableaux(l, 7), count_by_tableaux(l + 1, 7)
        for n in range(1, 8):
            smaller, larger = column[n], next_column[n]
            assert smaller <= larger
            if l >= n:
                assert smaller == larger == factorial(n)
            else:
                assert smaller < larger
