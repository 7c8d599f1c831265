"""Restricted-permutation counts: three routes, one answer."""

import time
from bisect import bisect_left
from fractions import Fraction
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
from zgap.arith import add_strip
from zgap.series import HalfPowerSeries, SeriesMatrix


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


def young_lattice(top, rows):
    """[{shape: f(shape)} for the shapes of k cells with at most `rows` rows,
    k = 0..top], f the standard-tableau count, by unit strips from ()."""
    layers = [{(): 1}]
    for _ in range(top):
        layers.append(add_strip(layers[-1], 1, rows))
    return layers


def test_hook_length_examples():
    layers = young_lattice(5, 5)
    assert layers[4][(4,)] == layers[4][(1, 1, 1, 1)] == 1
    assert layers[3][(2, 1)] == enumerate_tableaux((2, 1)) == 2
    assert layers[4][(2, 2)] == enumerate_tableaux((2, 2)) == 2
    assert layers[5][(3, 2)] == enumerate_tableaux((3, 2)) == 5
    assert layers[5][(3, 1, 1)] == 6
    assert layers[0] == {(): 1}


def test_hook_rule_matches_the_leg_scan():
    for n, layer in enumerate(young_lattice(20, 20)):
        for shape, f in layer.items():
            assert f * hook_product_by_leg_scan(shape) == factorial(n)


def test_hook_length_matches_enumeration_for_small_shapes():
    for layer in young_lattice(6, 6):
        for shape, f in layer.items():
            assert f == enumerate_tableaux(shape)


def test_rsk_completeness():
    # sum over all partitions of n of f^2 equals n!
    for n, layer in enumerate(young_lattice(10, 10)):
        assert sum(f * f for f in layer.values()) == factorial(n)


def conjugate(shape):
    out = []
    i = 1
    while True:
        size = sum(1 for p in shape if p >= i)
        if size == 0:
            return tuple(out)
        out.append(size)
        i += 1


def test_unit_strips_reach_every_shape_with_at_most_l_rows():
    # conjugation turns at most l rows into parts of at most l
    for l in range(1, 7):
        for k, layer in enumerate(young_lattice(12, l)):
            assert sorted(layer) == sorted(conjugate(s) for s in partitions_by_recursion(k, l))


def test_tableaux_count_examples():
    assert count_by_tableaux(2, 6)[6] == catalan_numbers(7)[6] == 132
    assert count_by_tableaux(3, 4)[4] == count_by_enumeration(3, 4)[4] == 23
    for l in (1, 2, 5):
        assert count_by_tableaux(l, 0) == [1]


def test_series_count_examples():
    assert count_by_series(2, 3)[3] == 5
    assert count_by_series(4, 4)[4] == 24
    assert count_by_series(3, 8) == count_by_tableaux(3, 8)
    assert count_by_series(4, 60) == count_by_tableaux(4, 60)
    assert count_by_series(6, 30) == count_by_tableaux(6, 30)


def test_series_count_far_above_n_is_fast():
    start = time.perf_counter()
    assert count_by_series(20, 2) == [1, 1, 2]
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("route, source", [
    (count_by_tableaux, "unitary_average"),
    (count_by_series, "toeplitz_determinant"),
])
def test_every_series_route_rejects_a_non_integral_count(route, source, monkeypatch):
    # the last argument of either source is its number of terms
    monkeypatch.setattr(
        series, source, lambda l, *args: HalfPowerSeries(0, (1, 1, Fraction(1, 3))[: args[-1]])
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
