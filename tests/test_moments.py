"""Joint-moment coefficients, reference constants, and derived ratios."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    compositions,
    laplace_column,
    laplace_determinant,
    partitions_by_recursion,
    partition_sum,
    series_product,
)
from zgap import bounds, cli, moments
from zgap.arith import multinomial
from zgap.moments import (
    arithmetic_factor,
    coefficient_column,
    joint_moment_coefficient,
)
from zgap.series import hankel_determinant


def partition_sum_oracle(h, l):
    """Reference: the (2, 1) partition sum summed term by term over every
    pair of compositions, exactly as the formula is printed."""
    total = Fraction(0)
    for k in range(2 * h + 1):
        remaining = 2 * l + 2 * h - 2 * k
        inner = Fraction(0)
        for hv in compositions(k, l):
            mult_h = multinomial(k, hv)
            for mv in compositions(remaining, l + 1):
                pair_product = 1
                for j in range(1, l + 1):
                    for s in range(j + 1, l + 1):
                        pair_product *= (
                            mv[s] + 2 * hv[s - 1] - mv[j] - 2 * hv[j - 1] - s + j
                        )
                if pair_product == 0:
                    continue
                denominator = 2 ** mv[0]
                for j in range(1, l + 1):
                    denominator *= math.factorial(2 * l + mv[j] + 2 * hv[j - 1] - j)
                numerator = (-1) ** mv[0] * mult_h * multinomial(remaining, mv) * pair_product
                inner += Fraction(numerator, denominator)
        total += math.comb(2 * h, k) * inner
    return (-1) ** (l - h + (l * (l - 1)) // 2) * total


# every h through l = 3, and the low h at l = 4 and 5: the reference column
# and the Laplace oracle cover the rest of those two columns
ORACLE_CASES = [(h, l) for l in range(1, 4) for h in range(l + 1)] + [
    (0, 4), (1, 4), (2, 4), (0, 5), (1, 5)]


@pytest.mark.parametrize("h,l", ORACLE_CASES)
def test_partition_sum_matches_term_by_term_oracle(h, l):
    assert joint_moment_coefficient(h, l) == partition_sum_oracle(h, l)


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_general_column_matches_the_laplace_oracle(l):
    assert moments._column((2, 1), l) == tuple(
        partition_sum(laplace_column(l), h, l) for h in range(l + 1)
    )


def test_hankel_series_gives_the_1_0_column():
    # c((1)^h (0)^(l-h)) = (-1)^(l(l-1)/2 + h) (2h)! [x^(2h)] e^(-x/2) H_l(x),
    # H_l the Bessel Hankel series past its offset: the Toda chain and the
    # Kostka-Cauchy column share no code
    for l in range(1, 10):
        hankel = list(hankel_determinant(l, 2 * l + 1).coeffs)
        decay = [Fraction((-1) ** k, 2**k * math.factorial(k)) for k in range(2 * l + 1)]
        (product_row,) = series_product([hankel], [decay], 2 * l)
        assert moments._column((1, 0), l) == tuple(
            (-1) ** (l * (l - 1) // 2 + h) * math.factorial(2 * h) * product_row[2 * h]
            for h in range(l + 1)
        ), l


def tableau_counts(shape, entries):
    """{content: number of semistandard tableaux of `shape` with entries
    1..entries}, by trying every filling: rows weakly increase, columns
    strictly."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    counts = {}
    for filling in product(range(1, entries + 1), repeat=len(cells)):
        value = dict(zip(cells, filling))
        if all(value[i, j - 1] <= v for (i, j), v in value.items() if j) and all(
            value[i - 1, j] < v for (i, j), v in value.items() if i
        ):
            content = tuple(filling.count(e) for e in range(1, entries + 1))
            counts[content] = counts.get(content, 0) + 1
    return counts


def test_kostka_numbers_count_semistandard_tableaux():
    memo = {}
    checked = 0
    for size in range(1, 7):
        for entries in range(1, 5):
            for shape in partitions_by_recursion(size, size):
                counts = tableau_counts(shape, entries)
                padded = shape + (0,) * max(0, entries - len(shape))
                for content in compositions(size, entries):
                    assert moments._kostka(padded, content, memo) == counts.get(content, 0)
                    checked += counts.get(content, 0) > 0
    assert checked > 500


def shifted_parts(l):
    """m = kappa + (l-1, ..., 0) for a partition kappa with at most l parts:
    l distinct nonnegative integers, decreasing."""
    return st.sets(st.integers(0, 14), min_size=l, max_size=l).map(
        lambda parts: sorted(parts, reverse=True)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda l: st.tuples(shifted_parts(l), shifted_parts(l))))
def test_parity_blocks_give_the_moment_determinant(pair):
    # det[M(m_j + m'_k)], M(n) = 1/(2**n (n+1)) for even n and 0 for odd n,
    # is 0 unless m and m' have as many even parts, and otherwise the
    # signed Vandermonde products over 2**(|m| + |m'|) and the two Cauchy
    # denominators prod (x + y + 1) over the parts of one parity
    m, m2 = pair
    moment = [[Fraction(1, 2**n * (n + 1)) if n % 2 == 0 else 0 for n in (x + y for y in m2)]
              for x in m]
    signed, even, odd = moments._parity_split(m)
    signed2, even2, odd2 = moments._parity_split(m2)
    if len(even) != len(even2):
        expected = Fraction(0)
    else:
        cauchy = math.prod(x + y + 1 for xs, ys in ((even, even2), (odd, odd2))
                           for x in xs for y in ys)
        expected = Fraction(signed * signed2, 2 ** (sum(m) + sum(m2)) * cauchy)
    assert laplace_determinant(moment) == expected


@pytest.fixture
def builds():
    """The column builds of `moments` from cold caches: the misses of
    `moments._column`, read when called."""
    moments._column.cache_clear()
    return lambda: moments._column.cache_info().misses


def test_moments_command_builds_the_column_once(builds, capsys):
    assert cli.main(["moments", "--l", "4"]) == 0
    capsys.readouterr()
    assert builds() == 1


def test_each_certificate_builds_one_column_and_repeats_build_none(builds):
    assert bounds.certify_bound(1).valid
    assert builds() == 1
    assert bounds.certify_bound(2).valid
    assert builds() == 2
    assert bounds.certify_bound(1).valid and bounds.certify_bound(2).valid
    assert builds() == 2


def test_partition_sum_rejects_bad_arguments(builds):
    with pytest.raises(ValueError):
        joint_moment_coefficient(5, 4)
    with pytest.raises(ValueError):
        joint_moment_coefficient(-1, 2)
    assert builds() == 0


def test_reference_table_out_of_range():
    assert sorted(coefficient_column(1)) == [0, 1, 2, 3, 4]
    # each call returns a fresh dict, so a caller's edit stays local
    column = coefficient_column(1)
    column[0] = Fraction(0)
    assert coefficient_column(1)[0] > 0
    with pytest.raises(KeyError):
        coefficient_column(0)
    with pytest.raises(KeyError):
        coefficient_column(3)


def test_sieve_matches_trial_division():
    # every n up to 2000 meets the sieve's ends as primes and as composites,
    # odd and even: n itself, n - 1, and the squares of primes at the last
    # root it sieves
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for n in range(2, 2001):
        assert moments._primes_up_to(n) == [p for p in primes if p <= n]
    assert len(moments._primes_up_to(10**5)) == 9592  # pi(10**5)


# (l, cutoff, value, error_bound) as float.hex, as the Euler product was
# computed before its loop was tightened: the loop must keep every float
# operation and its order, so these stay bit for bit
ARITHMETIC_FACTOR_HEX = [
    (1, 100_000, "0x1.0000000000000p+0", "0x1.4f8bc681cdfb6p-17"),
    (3, 100_000, "0x1.940bcb0ff3f89p-5", "0x1.4f448a49c2dbbp-15"),
    (8, 100_000, "0x1.b445bba066305p-97", "0x1.23da0f75b9ea8p-101"),
    (16, 100_000, "0x1.648ec2ca3b972p-561", "0x1.4a1d22885d85ep-561"),
    (5, 1000, "0x1.1082453da0d7bp-25", "0x1.d9359e5ef731cp-26"),
]


@pytest.mark.parametrize("l, cutoff, value, error_bound", ARITHMETIC_FACTOR_HEX)
def test_arithmetic_factor_is_pinned_bit_for_bit(l, cutoff, value, error_bound):
    estimate = arithmetic_factor(l, cutoff)
    assert (estimate.value.hex(), estimate.error_bound.hex()) == (value, error_bound)


def test_arithmetic_factor_l16_is_the_last_value_with_a_correct_digit():
    # at the default cutoff the omitted-prime tail l**4 / cutoff grows until,
    # from l = 17, the error bound exceeds the value
    estimate = arithmetic_factor(16)
    assert 0 < estimate.error_bound < estimate.value
    assert estimate.error_bound / estimate.value > 0.9
    with pytest.raises(ValueError, match="error bound for l=17 .* not below the value"):
        arithmetic_factor(17)


def test_arithmetic_factor_rejects_a_tail_above_ln2_before_the_sieve(monkeypatch):
    # l**4 / cutoff = 5000 >= ln 2: rejected before any prime is sieved, so
    # no error bound, finite or not, is ever formed
    def refuse(n):
        raise AssertionError("sieve run for an input the error bound rejects")

    monkeypatch.setattr(moments, "_primes_up_to", refuse)
    with pytest.raises(ValueError, match="error bound"):
        arithmetic_factor(10, prime_cutoff=2)
    # the top cutoff passes the range check: 92**4 = 71639296 >= 10**8 * ln 2
    with pytest.raises(ValueError, match=r"^the error bound for l=92 at prime_cutoff=100000000 "):
        arithmetic_factor(92, prime_cutoff=10**8)


def test_ln2_decision_is_exact_at_every_boundary_cutoff():
    # l is accepted iff cutoff > l**4 / ln 2, so the decision for l flips
    # only between floor(l**4 / ln 2) and the next cutoff; from l = 92 on,
    # every cutoff up to 10**8 rejects
    with localcontext() as context:
        context.prec = 60
        ln2 = Fraction(Decimal(2).ln())
    checked = 0
    for l in range(1, 93):
        edge = math.floor(l**4 / ln2)
        for cutoff in (edge, edge + 1):
            if 2 <= cutoff <= 10**8:
                exact = l**4 < cutoff * ln2
                assert moments._below_ln2(Fraction(l**4, cutoff)) == exact
                assert (l**4 < cutoff * math.log(2)) == exact
                assert exact == (cutoff == edge + 1)
                checked += 1
    assert checked == 2 * 91 - 1


def test_arithmetic_factor_rejects_a_cutoff_above_the_ceiling(monkeypatch):
    def refuse(n):
        raise AssertionError("sieve allocated for a rejected cutoff")

    monkeypatch.setattr(moments, "_primes_up_to", refuse)
    with pytest.raises(ValueError, match="prime_cutoff"):
        arithmetic_factor(2, prime_cutoff=10**8 + 1)


def truncated_arithmetic_factor(l, prime_cutoff):
    """The Euler product with each inner sum cut at 64 terms, as
    `arithmetic_factor` computed it before the closed form."""
    value = 1.0
    for p in _primes(prime_cutoff):
        inner, term_weight = 0.0, 1.0  # C(m+l-1, m)**2 * p**-m at current m
        for m in range(64):
            if m > 0:
                term_weight *= ((m + l - 1) / m) ** 2 / p
            inner += term_weight
        value *= (1.0 - 1.0 / p) ** (l * l) * inner
    return value


@pytest.mark.parametrize("l", range(1, 9))
def test_euler_transformation_is_a_formal_identity(l):
    # sum_m C(m+l-1, m)**2 x**m == (1-x)**(1-2l) * sum_{k<l} C(l-1, k)**2 x**k,
    # coefficient by coefficient; (1-x)**(1-2l) = sum_j C(j+2l-2, j) x**j
    order = 40
    lhs = [Fraction(math.comb(m + l - 1, m) ** 2) for m in range(order)]
    poly = [math.comb(l - 1, k) ** 2 for k in range(l)]
    rhs = [
        Fraction(sum(poly[k] * math.comb(m - k + 2 * l - 2, m - k) for k in range(min(l, m + 1))))
        for m in range(order)
    ]
    assert lhs == rhs


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_closed_form_matches_the_truncated_sum(l):
    value = arithmetic_factor(l, prime_cutoff=10_000).value
    assert value == pytest.approx(truncated_arithmetic_factor(l, 10_000), rel=1e-12)


def test_each_euler_factor_meets_the_tail_premise():
    # the omitted-prime error bound assumes |log f_p| <= l**4 / p**2
    for l in range(1, 21):
        for p in _primes(10_000):
            poly = sum(math.comb(l - 1, k) ** 2 / p**k for k in range(l))
            log_f = (l - 1) ** 2 * math.log1p(-1 / p) + math.log(poly)
            assert abs(log_f) <= l**4 / p**2


def _primes(n):
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i, flag in enumerate(sieve) if flag]
