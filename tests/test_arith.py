"""The multinomial coefficient."""

import math
from itertools import permutations

import pytest

from oracles import compositions
from zgap.arith import multinomial


def test_multinomial_examples():
    assert multinomial(4, [4]) == 1
    assert multinomial(3, [1, 1, 1]) == 6
    # enumeration oracle: distinct arrangements of the multiset {a,a,b,b}
    arrangements = {p for p in permutations("aabb")}
    assert multinomial(4, [2, 2]) == len(arrangements) == 6


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial(4, [2, 1])  # sum mismatch
    with pytest.raises(ValueError):
        multinomial(1, [2, -1])


def test_multinomial_is_product_of_binomials():
    # exhaustive over all n <= 12 and part lists of length <= 5
    for n in range(13):
        for length in range(1, 6):
            for parts in compositions(n, length):
                product = 1
                remaining = n
                for p in parts:
                    product *= math.comb(remaining, p)
                    remaining -= p
                assert multinomial(n, parts) == product
