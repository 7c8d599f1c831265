"""Closed forms, reference solvers, and the exact polynomial, series and
counting helpers that the tests and the acceptance suite check the library
against.  The library itself has no use for them, so they live here, once."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import factorial

import numpy

from zgap import bounds
from zgap.moments import coefficient_column


def cue_moment_coefficient(l):
    """prod_{j=0}^{l-1} j!/(j+l)!: the leading coefficient of the 2l-th
    absolute moment of the characteristic polynomial over U(N), N -> inf."""
    out = Fraction(1)
    for j in range(l):
        out *= Fraction(math.factorial(j), math.factorial(j + l))
    return out


def hall_ratio(h, n):
    """A(h) = |(2h-1)/(2h-3)| * B(h-1)/B(h) for the l = 4 reference column
    of derivative pair (n+1, n), where B(h) = 4**(h-4) * b[h]/b[4], so
    B(h-1)/B(h) = b[h-1] / (4*b[h])."""
    b = coefficient_column(n)
    return abs(Fraction(2 * h - 1, 2 * h - 3)) * b[h - 1] / (4 * b[h])


def partitions_by_recursion(n, max_part):
    """Partitions of n with every part <= max_part in lexicographically
    decreasing order, by recursion on the first part: the order oracle for
    `arith.partitions_max_part`.  One level per part, so it stops at the
    interpreter's recursion limit."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_by_recursion(n - first, first):
            yield (first,) + rest


def hook_product_by_leg_scan(shape):
    """The product of the hook lengths of `shape`, each cell's leg found by
    scanning every row below it: the reference for the column-height rule
    of `series.standard_tableaux`.  About k**2/2 steps for a k-cell
    column."""
    product = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for r in shape[i + 1 :] if r > j)
            product *= arm + leg + 1
    return product


def residue_residual(v, lam):
    """The log-form lambda residual by residues: pi * sum_k (-y_k)**(-1/2)
    - l*pi over the l roots y_k of Q(y) = lam + sum_h C(l,h) v_h y**h
    (v_l = 1), principal branch, from numpy's companion-matrix roots.  It
    holds when lam > 0 and every v_h > 0, since Q then has no root on
    [0, inf)."""
    coeffs = bounds._weight_coeffs(v)
    roots = numpy.roots([*reversed(coeffs), lam]).astype(complex)
    return math.pi * sum((-y) ** -0.5 for y in roots).real - len(coeffs) * math.pi


def half_line_log_residual(coeffs, lam, quad_tol):
    """The log-form lambda residual integral_0^inf log(1 + P(u**2)/lam)
    du/u**2 - l*pi, P(y) = sum_h coeffs[h-1] * y**h and l = len(coeffs),
    by `bounds.integrate_half_line` on the integrand as it stands.  With
    its 2d*log(u)/u**2 growth left in, the tail at u = 1/s has a log
    singularity at s = 0, so this costs some 20 times the evaluations of the
    library's log form, which takes that term out exactly."""

    def integrand(u):
        y = u * u
        p_over_y = 0.0  # P(y)/y, stable as u -> 0
        for ck in reversed(coeffs[1:]):
            p_over_y = (p_over_y + ck) * y
        p_over_y += coeffs[0]
        w = p_over_y * y / lam
        if w > 1e-8:
            return math.log1p(w) / y
        return (p_over_y / lam) * (1.0 - 0.5 * w + w * w / 3.0)  # log1p(w)/w -> 1

    return bounds.integrate_half_line(integrand, quad_tol) - len(coeffs) * math.pi


def solve_lambda_by_quadrature(v, *, quad_tol):
    """The root of the log-form lambda equation for v = (v_1 .. v_{l-1}),
    v_l = 1 implicit, any l and every v_h >= 0: the library's bracket and
    bisection, `bounds._root_of_decreasing`, on the quadrature residual to
    quad_tol.  Independent of the factor rule that `bounds.solve_lambda`
    uses."""
    coeffs = bounds._weight_coeffs(v)
    return bounds._root_of_decreasing(
        lambda lam: bounds._log_residual_from_coeffs(coeffs, lam, quad_tol), quad_tol
    )


def compositions(total, parts):
    """Nonnegative integer tuples of length parts summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def catalan_numbers(count):
    """C_0 .. C_{count-1} by C_{m+1} = sum_i C_i * C_{m-i}."""
    values = [1]
    while len(values) < count:
        values.append(sum(a * b for a, b in zip(values, reversed(values))))
    return values[:count]


# Truncated series: rows[a][m] is the coefficient of s**a * t**m, kept
# through the weight 2a + m <= top; a series in t alone is one row.


def series_product(p, q, top):
    """p * q through weight top, from coefficient products alone."""
    rows = min(len(p) + len(q) - 1, top // 2 + 1)
    out = [[0] * (top - 2 * a + 1) for a in range(rows)]
    for a1, row1 in enumerate(p[:rows]):
        for a2, row2 in enumerate(q[: rows - a1]):
            row = out[a1 + a2]
            for m1, x in enumerate(row1[: len(row)]):
                for m2, y in enumerate(row2[: len(row) - m1], start=m1):
                    row[m2] += x * y
    return out


def series_derivative(p):
    """d/dt of p, one coefficient shorter in each row."""
    return [[m * c for m, c in enumerate(row)][1:] for row in p]


class WeightedSeries:
    """A series of rows[a][m] = [s**a t**m] through weight top, as an entry
    of `laplace_determinant`: sums coefficient by coefficient, products by
    `series_product`."""

    __slots__ = ("rows", "top")

    def __init__(self, rows, top):
        self.rows, self.top = rows, top

    def __add__(self, other):
        rows = [[x + y for x, y in zip(p, q)] for p, q in zip(self.rows, other.rows)]
        return WeightedSeries(rows, self.top)

    def __sub__(self, other):
        rows = [[x - y for x, y in zip(p, q)] for p, q in zip(self.rows, other.rows)]
        return WeightedSeries(rows, self.top)

    def __mul__(self, other):
        return WeightedSeries(series_product(self.rows, other.rows, self.top), self.top)


def laplace_determinant(entries):
    """det(entries) for a nonempty square grid over a commutative ring
    (entries with +, - and *, such as `WeightedSeries`, int or Fraction),
    by Laplace expansion along the rows, memoised on the set of columns
    already used: the minor on rows r..l-1 depends only on which r columns
    rows 0..r-1 took.  That is l*2**(l-1) - l entry products (186 at l = 6);
    the permutation expansion needs l!*(l-1)."""
    l = len(entries)
    if l == 0 or any(len(row) != l for row in entries):
        raise ValueError("entries must form a nonempty square grid")

    @lru_cache(maxsize=None)
    def minor(used):
        """Determinant of rows r..l-1 over the columns not in the bitmask
        `used`, where r is the number of columns in it."""
        r = used.bit_count()
        free = [j for j in range(l) if not used >> j & 1]
        if r == l - 1:
            return entries[r][free[0]]
        total = entries[r][free[0]] * minor(used | 1 << free[0])
        for k, j in enumerate(free[1:], start=1):
            term = entries[r][j] * minor(used | 1 << j)
            total = total - term if k % 2 else total + term
        return total

    return minor(0)


def bessel_grid_determinant(orders, top, s_degree=None):
    """det[G_{orders[j][k]}] for the two-variable Bessel-type series

        G_n(s, t) = sum_{a, m >= 0} s**a * t**m / (a! * m! * (n + m + 2a)!),

    1/(negative)! = 0, so G_n(0, t) = g_n(t) of `zgap.series`, through the
    weight 2a + m <= top and a <= s_degree (default top // 2; cutting s is
    a ring map, so s_degree = 0 gives row 0 alone, cheaply), by
    `laplace_determinant`.  Row a of the result holds the coefficients of
    s**a * t**m, m = 0..top-2a.  Every entry is scaled by D = top! *
    (top + n)!, with n the largest order, to integer coefficients (a + m <=
    top, so a! * m! divides top!), and the determinant is divided by D**l
    once."""
    rows = top // 2 + 1 if s_degree is None else min(top // 2, s_degree) + 1
    scale = factorial(top) * factorial(top + max(map(max, orders)))
    grid = {
        n: WeightedSeries(
            [
                [
                    scale // (factorial(a) * factorial(m) * factorial(n + m + 2 * a))
                    if n + m + 2 * a >= 0 else 0
                    for m in range(top - 2 * a + 1)
                ]
                for a in range(rows)
            ],
            top,
        )
        for n in {n for row in orders for n in row}
    }
    det = laplace_determinant(tuple(tuple(grid[n] for n in row) for row in orders))
    denominator = scale ** len(orders)
    return tuple(tuple(Fraction(c, denominator) for c in row) for row in det.rows[:rows])


def partition_sum_orders(l):
    """The orders 2l - i - j (i = 0..l-1, j = 1..l) of the (2, 1) grid."""
    return [[2 * l - i - j for j in range(1, l + 1)] for i in range(l)]


@lru_cache(maxsize=None)
def laplace_column(l):
    """det[G_{2l-i-j}] through weight 4l: the one determinant that every
    h = 0..l of the (2, 1) column reads, by `partition_sum`."""
    return bessel_grid_determinant(partition_sum_orders(l), 4 * l)


def partition_sum(det, h, l):
    """The (2, 1) coefficient S(h, l) by its partition-sum formula,

        (-1)**(l - h + l(l-1)/2) *
        sum_{k=0}^{2h} C(2h, k)
          sum_{h_1+..+h_l = k}  sum_{m_0+..+m_l = R_k}
            (-1/2)**m_0 * multinomial(k; h_j) * multinomial(R_k; m_j)
            * prod_{j=1}^{l} 1/(2l + a_j)!  * prod_{j<s} (a_s - a_j),

    with R_k = 2l + 2h - 2k and a_j = m_j + 2 h_j - j, read off `det`, the
    grid det[G_{2l-i-j}] of `bessel_grid_determinant` through any weight
    top >= 2l + 2h.  The pair product is the Vandermonde det[a_j**i]
    (i = 0..l-1, j = 1..l).  Replacing a**i by the falling factorial
    (2l+a)(2l+a-1)...(2l+a-i+1), which is monic of degree i in a, leaves the
    determinant unchanged and cancels against 1/(2l+a)! to give
    1/(2l+a-i)!.  The sums over h_j and m_j then enter column by column
    (Andreief / Cauchy-Binet), so the double sum becomes one Hankel
    determinant det[G_{2l-i-j}] (orders 1..2l-1), and the m_0 sum is
    exp(-t/2):

        S(h, l) = sign * sum_k C(2h, k) k! R_k!
                  * [s**k t**R_k] exp(-t/2) * det[G_{2l-i-j}].

    Every coefficient read lies on 2*deg_s + deg_t = 2l + 2h <= 4l.
    Truncating at a weight is a ring map, so each such coefficient is the
    same in the determinant through 4l, which `laplace_column(l)` builds
    once for all h of the column.  The formula is specific to the (2, 1)
    derivative pair."""
    top = 2 * l + 2 * h
    total = Fraction(0)
    for k in range(2 * h + 1):
        remaining = top - 2 * k
        inner = sum(
            det[k][remaining - m0] * Fraction((-1) ** m0, 2**m0 * factorial(m0))
            for m0 in range(remaining + 1)
        )
        total += math.comb(2 * h, k) * factorial(k) * factorial(remaining) * inner
    return (-1) ** (l - h + (l * (l - 1)) // 2) * total


# Exact univariate polynomials over Fraction: coefficient lists, lowest
# degree first, with no trailing zeros except the zero polynomial [0].


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def poly_divmod(p, q):
    """(quotient, remainder) of p by q, for q != 0."""
    p, q = _trim(p), _trim(q)
    if len(p) < len(q):
        return [Fraction(0)], p
    quotient = [Fraction(0)] * (len(p) - len(q) + 1)
    for k in reversed(range(len(quotient))):
        c = Fraction(p[k + len(q) - 1]) / q[-1]
        quotient[k] = c
        for j, b in enumerate(q):
            p[k + j] -= c * b
    return _trim(quotient), _trim(p[: len(q) - 1] or [Fraction(0)])


def poly_sub(p, q):
    return _trim(a - b for a, b in zip_longest(p, q, fillvalue=Fraction(0)))


def poly_inverse_mod(p, f):
    """p**-1 modulo f, by the extended Euclidean algorithm on (f, p), each
    step keeping s*p = r (mod f)."""
    r0, r1 = f, poly_divmod(p, f)[1]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    if r1[0] == 0:
        raise ValueError("p and f have a common factor")
    return [c / r1[0] for c in poly_divmod(s1, f)[1]]


def half_line_moments(sigma, count):
    """J_m / pi for m < count, where J_m = integral_0^inf u**(2m)/Q(u**2) du,
    exactly, for Q(-t**2) = F(t)*F(-t) with F(t) = t**4 + s1*t**3 + s2*t**2
    + s3*t + s4 Hurwitz and sigma = (s1, s2, s3, s4).  By residues at the
    roots t_k of F, J_m/pi = (-1)**m * sum_k t_k**(2m)/(F'(t_k)*F(-t_k)),
    and by Euler-Jacobi that sum is the t**3 coefficient of
    t**(2m) * F(-t)**-1 mod F."""
    s1, s2, s3, s4 = sigma
    f = [s4, s3, s2, s1, Fraction(1)]
    inverse = poly_inverse_mod([c if k % 2 == 0 else -c for k, c in enumerate(f)], f)
    out = []
    for m in range(count):
        reduced = poly_divmod([Fraction(0)] * (2 * m) + inverse, f)[1]
        out.append((-1) ** m * (reduced[3] if len(reduced) > 3 else Fraction(0)))
    return out
