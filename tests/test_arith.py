"""Exact arithmetic and combinatorial primitives."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from zgap import lis, moments, series
from zgap.arith import multinomial

# moments, lis and series bind math.factorial by name, where the benchmark
# tracer counts its calls
BOUND_FACTORIALS = (moments.factorial, lis.factorial, series.factorial)


def test_factorial_examples():
    # repeated-multiplication oracle
    expected = 1
    for k in range(1, 17):
        expected *= k
    assert expected == 20922789888000
    for factorial in BOUND_FACTORIALS:
        assert factorial(0) == 1
        assert factorial(5) == 120
        assert factorial(16) == expected


def test_factorial_rejects_negative():
    for factorial in BOUND_FACTORIALS:
        with pytest.raises(ValueError):
            factorial(-1)


def test_factorial_recurrence():
    for factorial in BOUND_FACTORIALS:
        for n in range(50):
            assert factorial(n) * (n + 1) == factorial(n + 1)


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


def compositions(total, length):
    if length == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, length - 1):
            yield (first,) + rest


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


rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=100
)


@given(rationals, rationals)
def test_addition_subtraction_roundtrip(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda q: q != 0))
def test_multiplication_division_roundtrip(a, b):
    assert (a * b) / b == a


@given(rationals, rationals)
def test_reduction_preserves_value(a, b):
    # cross-multiplication equality: the normalized sum equals the textbook one
    total = a + b
    assert total.numerator * (a.denominator * b.denominator) == (
        a.numerator * b.denominator + b.numerator * a.denominator
    ) * total.denominator


def test_exactness_with_wide_operands():
    # operands with >= 500-bit numerators and denominators stay exact
    a = Fraction(2**500 + 1, 2**501 + 3)
    b = Fraction(3**320 - 7, 2**513 + 9)
    assert (a + b) - b == a
    assert (a * b) / b == a


def test_fraction_invariants():
    q = Fraction(-6, -4)
    assert q.denominator > 0
    assert (q.numerator, q.denominator) == (3, 2)
