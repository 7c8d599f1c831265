"""Joint-moment coefficients, reference constants, and derived ratios."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from oracles import cue_moment_coefficient, hall_ratio, per_h_partition_sum
from zgap import bounds, cli, moments
from zgap.arith import multinomial
from zgap.moments import (
    arithmetic_factor,
    coefficient_column,
    joint_moment_coefficient,
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


@pytest.mark.parametrize("h,l", [(h, l) for l in range(1, 6) for h in range(l + 1)])
def test_one_determinant_per_column_matches_one_per_h(h, l):
    assert joint_moment_coefficient(h, l) == per_h_partition_sum(h, l)


# Toda cross-check of the column determinant: rows[a][m] is the coefficient
# of s**a t**m, and only products and t-derivatives of the computed
# determinants enter, so it shares no code with the Laplace expansion.
def weighted_product(p, q, top):
    """p * q through weight 2a + m <= top."""
    out = [[Fraction(0)] * (top - 2 * a + 1) for a in range(top // 2 + 1)]
    for a1, row1 in enumerate(p[: len(out)]):
        for a2, row2 in enumerate(q[: len(out) - a1]):
            row = out[a1 + a2]
            for m1, x in enumerate(row1[: len(row)]):
                for m2, y in enumerate(row2[: len(row) - m1], start=m1):
                    row[m2] += x * y
    return out


def t_derivative(p):
    return [[m * c for m, c in enumerate(row)][1:] for row in p]


@pytest.mark.parametrize("l", [2, 3, 4])
def test_column_determinant_satisfies_the_toda_equation(l):
    # reversing rows and columns makes det[G_{2l-i-j}] the Hankel
    # determinant H_l = det[G_{1+i+j}], and d/dt G_n = G_{n+1}, so
    # Desnanot-Jacobi gives H_{l+1} H_{l-1} = H_l H_l'' - (H_l')**2.  Each
    # H_l is exact through weight 4l, so both sides are through 4l - 4.
    top = 4 * l - 4
    h = moments._column(l)
    h1 = t_derivative(h)
    lhs = weighted_product(moments._column(l + 1), moments._column(l - 1), top)
    rhs = [
        [x - y for x, y in zip(row, square)]
        for row, square in zip(
            weighted_product(h, t_derivative(h1), top), weighted_product(h1, h1, top)
        )
    ]
    assert lhs == rhs
    assert any(any(row) for row in lhs)


@pytest.fixture
def builds(monkeypatch):
    """The argument tuples of every determinant `moments` builds, counted
    from cold caches."""
    moments._column.cache_clear()
    moments.joint_moment_coefficient.cache_clear()
    calls = []
    build = moments.bessel_determinant

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(moments, "bessel_determinant", counting)
    return calls


def test_moments_command_builds_the_column_once(builds, capsys):
    assert cli.main(["moments", "--l", "4"]) == 0
    capsys.readouterr()
    assert [(top, s_degree) for _, top, s_degree in builds] == [(16, 8)]


def test_both_certificates_share_one_column_build(builds):
    assert bounds.certify_bound(1).valid
    assert bounds.certify_bound(2).valid
    assert len(builds) == 1


def test_partition_sum_rejects_bad_arguments(builds):
    with pytest.raises(ValueError):
        joint_moment_coefficient(5, 4)
    with pytest.raises(ValueError):
        joint_moment_coefficient(-1, 2)
    assert builds == []


@pytest.mark.parametrize("h", [0, 1, 2, 3, 4])
def test_partition_sum_reproduces_reference_column(h):
    assert joint_moment_coefficient(h, 4) == coefficient_column(1)[h]


def test_reference_table_examples():
    assert coefficient_column(1)[0] == Fraction(31, 2**20 * 3**10 * 5**4 * 7**2 * 11 * 13)
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
    # each call returns a fresh dict, so a caller's edit stays local
    column = coefficient_column(1)
    column[0] = Fraction(0)
    assert coefficient_column(1)[0] > 0
    with pytest.raises(KeyError):
        coefficient_column(0)
    with pytest.raises(KeyError):
        coefficient_column(3)


def ratios(b):
    """B(0..4) and A(1..4) of the coefficient column b, as the certificate's
    exact prelude forms them."""
    capB, inputs, _, _ = bounds._exact_prelude(b)
    return capB, dict(enumerate(inputs, start=1))


@pytest.mark.parametrize("n", [1, 2])
def test_ratio_normalization_and_positivity(n):
    capB, _ = ratios(coefficient_column(n))
    assert sorted(capB) == [0, 1, 2, 3, 4]
    assert all(value > 0 for value in capB.values())
    assert capB[4] == 1


def test_ratio_spot_checks():
    b = coefficient_column(1)
    assert ratios(b)[0][3] == Fraction(1, 4) * b[3] / b[4]
    b2 = coefficient_column(2)
    assert ratios(b2)[0][0] == Fraction(1, 4) ** 4 * b2[0] / b2[4]


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
    _, A = ratios(coefficient_column(n))
    assert A[h] == hall_ratio(h, n) == HALL_RATIOS[(h, n)]


def test_exact_prelude_matches_the_hall_ratio_oracle():
    for n in (1, 2):
        capB, A = ratios(coefficient_column(n))
        assert capB[4] == 1
        assert A == {h: hall_ratio(h, n) for h in range(1, 5)}


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
