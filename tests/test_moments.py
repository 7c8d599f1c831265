"""Joint-moment coefficients, reference constants, and derived ratios."""

import math
from fractions import Fraction

import pytest

from oracles import cue_moment_coefficient, hall_ratio
from zgap import moments
from zgap.arith import multinomial
from zgap.moments import (
    arithmetic_factor,
    coefficient_column,
    joint_moment_coefficient,
    ratio_set_from_values,
)

G_VALUES = {1: 1, 2: 2, 3: 42, 4: 24024}


def test_cue_moment_coefficient_examples():
    assert cue_moment_coefficient(1) == 1
    assert cue_moment_coefficient(2) == Fraction(1, 12)
    assert cue_moment_coefficient(2) * math.factorial(4) == 2
    assert cue_moment_coefficient(3) == Fraction(1, 8640)
    assert cue_moment_coefficient(3) * math.factorial(9) == 42


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_g_value_normalization(l):
    assert cue_moment_coefficient(l) * math.factorial(l * l) == G_VALUES[l]


def test_partition_sum_base_case_by_direct_summation():
    # h=0, l=1: only k=0 contributes, m0+m1 = 2; the three summands are
    # (m0,m1) = (0,2), (1,1), (2,0) with values 1/3!, -(1/2)*2/2!, (1/4)*1/1!
    direct = Fraction(0)
    for m0, m1 in ((0, 2), (1, 1), (2, 0)):
        direct += (
            Fraction(-1, 2) ** m0
            * multinomial(2, [m0, m1])
            * Fraction(1, math.factorial(2 + m1 - 1))
        )
    assert -direct == Fraction(1, 12)  # prefactor (-1)^(1-0+0) = -1
    assert joint_moment_coefficient(0, 1) == Fraction(1, 12)


def compositions(total, parts):
    """Nonnegative integer tuples of fixed length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


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


ORACLE_CASES = [(h, l) for l in range(1, 5) for h in range(l + 1)] + [(h, 5) for h in range(3)]


@pytest.mark.parametrize("h,l", ORACLE_CASES)
def test_partition_sum_matches_term_by_term_oracle(h, l):
    assert joint_moment_coefficient(h, l) == partition_sum_oracle(h, l)


def test_partition_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        joint_moment_coefficient(5, 4)
    with pytest.raises(ValueError):
        joint_moment_coefficient(-1, 2)


@pytest.mark.parametrize("h", [0, 1, 2, 3, 4])
def test_partition_sum_reproduces_reference_column(h):
    assert joint_moment_coefficient(h, 4) == coefficient_column(1)[h]


def test_reference_table_examples():
    assert coefficient_column(1)[1] == Fraction(
        71, 2**22 * 3**9 * 5**4 * 7**2 * 11**2 * 13 * 17
    )
    assert coefficient_column(2)[0] == Fraction(
        103 * 413129,
        2**28 * 3**12 * 5**5 * 7**3 * 11**2 * 13**2 * 17 * 19 * 23,
    )
    assert coefficient_column(2)[4] == Fraction(
        449 * 1721279377,
        2**36 * 3**10 * 5**7 * 7**4 * 11**3 * 13**3 * 17**2 * 19 * 23 * 31,
    )


def test_reference_table_cross_column_identity():
    assert coefficient_column(1)[4] == coefficient_column(2)[0]


def test_reference_table_out_of_range():
    assert sorted(coefficient_column(1)) == [0, 1, 2, 3, 4]
    with pytest.raises(KeyError):
        coefficient_column(0)
    with pytest.raises(KeyError):
        coefficient_column(3)


@pytest.mark.parametrize("n", [1, 2])
def test_ratio_normalization_and_positivity(n):
    capB = ratio_set_from_values(coefficient_column(n)).capB
    assert sorted(capB) == [0, 1, 2, 3, 4]
    assert all(value > 0 for value in capB.values())
    assert capB[4] == 1


def test_ratio_spot_checks():
    b = coefficient_column(1)
    assert ratio_set_from_values(b).capB[3] == Fraction(1, 4) * b[3] / b[4]
    b2 = coefficient_column(2)
    assert ratio_set_from_values(b2).capB[0] == Fraction(1, 4) ** 4 * b2[0] / b2[4]


HALL_RATIOS = {
    (1, 1): Fraction(5797, 213),
    (2, 1): Fraction(2974545, 149081),
    (3, 1): Fraction(87212385, 21783251),
    (4, 1): Fraction(501014773, 638284305),
    (1, 2): Fraction(81913152475, 4033246857),
    (2, 2): Fraction(84698183997, 5727828727),
    (3, 2): Fraction(2823819562411, 933497701947),
    (4, 2): Fraction(13933317551283, 22412778767917),
}


@pytest.mark.parametrize("h,n", sorted(HALL_RATIOS))
def test_hall_ratios_exact(h, n):
    ratios = ratio_set_from_values(coefficient_column(n))
    assert ratios.A[h] == hall_ratio(h, n) == HALL_RATIOS[(h, n)]


def test_ratio_set_from_values_matches_the_hall_ratio_oracle():
    for n in (1, 2):
        ratios = ratio_set_from_values(coefficient_column(n))
        assert ratios.capB[4] == 1
        assert ratios.A == {h: hall_ratio(h, n) for h in range(1, 5)}


def test_arithmetic_factor_telescopes_for_l1():
    estimate = arithmetic_factor(1, prime_cutoff=10_000)
    assert abs(estimate.value - 1.0) <= max(estimate.error_bound, 1e-9)
    assert abs(estimate.value - 1.0) < 1e-9


def test_arithmetic_factor_l2_against_closed_form():
    # for l=2 each factor is exactly 1 - 1/p^2 (inner sum in closed form),
    # so the product converges to 6/pi^2
    cutoff = 10_000
    estimate = arithmetic_factor(2, prime_cutoff=cutoff)
    assert 0 < estimate.value < 1
    partial = 1.0
    for p in _primes(cutoff):
        partial *= 1.0 - 1.0 / (p * p)
    assert abs(estimate.value - partial) <= estimate.error_bound
    assert abs(estimate.value - 6 / math.pi**2) <= estimate.error_bound + 2e-4


def test_arithmetic_factor_monotone_in_cutoff():
    previous = None
    for cutoff in (100, 1_000, 10_000):
        estimate = arithmetic_factor(2, prime_cutoff=cutoff)
        if previous is not None:
            assert estimate.value < previous
        previous = estimate.value


def test_arithmetic_factor_self_consistency():
    coarse = arithmetic_factor(4, prime_cutoff=1_000)
    fine = arithmetic_factor(4, prime_cutoff=10_000)
    assert abs(coarse.value - fine.value) <= coarse.error_bound + fine.error_bound


def test_arithmetic_factor_l16_is_the_last_value_with_a_correct_digit():
    # at the default cutoff the omitted-prime tail l**4 / cutoff grows until,
    # from l = 17, the error bound exceeds the value
    estimate = arithmetic_factor(16)
    assert 0 < estimate.error_bound < estimate.value
    assert estimate.error_bound / estimate.value > 0.9
    with pytest.raises(ValueError, match="error bound for l=17 .* not below the value"):
        arithmetic_factor(17)


def test_arithmetic_factor_rejects_an_infinite_error_bound():
    # the omitted-prime tail l**4 / cutoff = 5000 overflows expm1
    with pytest.raises(ValueError, match="error bound"):
        arithmetic_factor(10, prime_cutoff=2)


def test_arithmetic_factor_rejects_a_cutoff_above_the_ceiling(monkeypatch):
    def refuse(n):
        raise AssertionError("sieve allocated for a rejected cutoff")

    monkeypatch.setattr(moments, "_primes_up_to", refuse)
    with pytest.raises(ValueError, match="prime_cutoff"):
        arithmetic_factor(2, prime_cutoff=10**8 + 1)


def _primes(n):
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i, flag in enumerate(sieve) if flag]
