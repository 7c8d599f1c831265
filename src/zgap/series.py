"""Exact truncated series for modified Bessel functions of the first kind
and the Hankel/Toeplitz determinants built from them.

Row and column factors
----------------------
The modified Bessel function is taken in its standard series form

    I_n(2*sqrt(x)) = x**(n/2) * g_n(x),   g_n(x) = sum_{m>=0} x**m / (m! * (m+n)!),

with 1/(negative)! = 0, so g_{-n}(x) = x**n * g_n(x) and the form also
holds for negative n (I_{-n} = I_n).  In both determinants the power of x
in entry (j, k) splits into a factor of row j times a factor of column k,
and those factors come out of the determinant:

* Hankel: x**((j+k+1)/2) = x**(j/2) * x**((k+1)/2), so
  det[I_{j+k+1}(2*sqrt(x))] = x**(l**2/2) * det[g_{j+k+1}(x)].
* Toeplitz: with x = z**2, I_{j-k}(2z) = z**j * z**(-k) * g_{j-k}(x); the
  row and column factors cancel over every permutation, so
  det[I_{j-k}(2z)] = det[g_{j-k}(x)].

What remains is a determinant of polynomials.  Its entries, cut at degree
terms-1 and scaled by one common denominator D to integer coefficients,
form a grid of `IntegerSeries`; the determinant of that grid, cut at the
same degree, is exact there, and it is divided by D**l once.
`bessel_determinant` is that one grid.  There is no rounding anywhere in
this module.

Results are `HalfPowerSeries`: x**offset * (c_0 + c_1*x + ...) with the
offset a multiple of 1/2 and `terms` exact coefficients: Toeplitz from
x**0, Hankel from x**(l**2/2).  Reading x as z**2 turns the Toeplitz
result into the even series of det[I_{j-k}(2z)]; the unitary-average
comparisons below use exactly that identification (z-degree = 2 *
x-degree).  `unitary_average` is the one character sum (partitions, hook
lengths): `zgap.lis` reads q = 0, `check_hankel_identity` q = l.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial  # bound by name: perfbench/tracer.py counts calls here
from typing import Iterator, NamedTuple, Sequence

from .arith import DEFAULT_TERMS


class HalfPowerSeries:
    """x**offset * (c_0 + c_1*x + ... + c_{K-1}*x**(K-1)), K >= 1, offset a
    multiple of 1/2: a plain record, the determinants' and averages' result."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: Fraction | int, coeffs: tuple) -> None:
        offset = Fraction(offset)
        if (2 * offset).denominator != 1:
            raise ValueError(f"offset must be a multiple of 1/2, got {offset}")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one retained coefficient")
        self.offset: Fraction = offset
        self.coeffs: tuple[Fraction, ...] = coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfPowerSeries):
            return NotImplemented
        return (self.offset, self.coeffs) == (other.offset, other.coeffs)

    def __mul__(self, scalar) -> "HalfPowerSeries":
        """The series times a rational scalar."""
        scalar = Fraction(scalar)
        return HalfPowerSeries(self.offset, tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__


class IntegerSeries:
    """A series in x with integer coefficients, cut at a fixed degree:
    ``coeffs[m]`` is the coefficient of x**m.  Operands of a sum or product
    have the same length, so every kept coefficient of a product is
    exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[int]) -> None:
        self.coeffs = coeffs

    def __add__(self, other: "IntegerSeries") -> "IntegerSeries":
        return IntegerSeries([x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "IntegerSeries") -> "IntegerSeries":
        return IntegerSeries([x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "IntegerSeries") -> "IntegerSeries":
        horizon = len(self.coeffs)
        out = [0] * horizon
        for m1, x in enumerate(self.coeffs):
            if x:
                for m2, y in enumerate(other.coeffs[: horizon - m1], start=m1):
                    out[m2] += x * y
        return IntegerSeries(out)


class SeriesMatrix:
    """A nonempty square grid over a commutative ring: entries that support
    ``+``, ``-`` and ``*``, such as `IntegerSeries`, int or Fraction."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple, ...]) -> None:
        l = len(entries)
        if l == 0 or any(len(row) != l for row in entries):
            raise ValueError("entries must form a nonempty square grid")
        self.entries = entries

    def determinant(self):
        """Exact determinant by Laplace expansion along the rows, memoised
        on the set of columns already used: the minor on rows r..l-1
        depends only on which r columns rows 0..r-1 took.  That is
        l*2**(l-1) - l entry products (186 at l = 6, 1016 at l = 8); the
        permutation expansion needs l!*(l-1)."""
        rows = self.entries
        l = len(rows)

        @lru_cache(maxsize=None)
        def minor(used: int):
            """Determinant of rows r..l-1 over the columns not in the bitmask
            `used`, where r is the number of columns in it."""
            r = used.bit_count()
            free = [j for j in range(l) if not used >> j & 1]
            if r == l - 1:
                return rows[r][free[0]]
            total = rows[r][free[0]] * minor(used | 1 << free[0])
            for k, j in enumerate(free[1:], start=1):
                term = rows[r][j] * minor(used | 1 << j)
                total = total - term if k % 2 else total + term
            return total

        return minor(0)


def bessel_determinant(orders: list[list[int]], top: int) -> tuple[Fraction, ...]:
    """det[g_{orders[j][k]}(x)] through x**top, for the Bessel-type series

        g_n(x) = sum_{m >= 0} x**m / (m! * (n + m)!),

    1/(negative)! = 0.  Every entry is scaled by D = top! * (top + n)!, with
    n the largest order, to integer coefficients, and the determinant is
    divided by D**l once."""
    scale = factorial(top) * factorial(top + max(map(max, orders)))
    grid = {
        n: IntegerSeries([scale // (factorial(m) * factorial(n + m)) if n + m >= 0 else 0
                          for m in range(top + 1)])
        for n in {n for row in orders for n in row}
    }
    det = SeriesMatrix(tuple(tuple(grid[n] for n in row) for row in orders)).determinant()
    denominator = scale ** len(orders)
    return tuple(Fraction(c, denominator) for c in det.coeffs)


def _check_size(l: int, terms: int) -> None:
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")


def hankel_determinant(l: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """det[ I_{j+k+1}(2*sqrt(x)) ] for j,k = 0..l-1, expanded exactly as
    x**(l**2/2) * det[g_{j+k+1}(x)], with `terms` exact coefficients."""
    _check_size(l, terms)
    orders = [[j + k + 1 for k in range(l)] for j in range(l)]
    return HalfPowerSeries(Fraction(l * l, 2), bessel_determinant(orders, terms - 1))


def toeplitz_determinant(l: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """det[ I_{j-k}(2z) ] for j,k = 0..l-1 as an even series in z, returned
    on the x = z**2 grading as det[g_{j-k}(x)] through x**(terms-1): the
    coefficient of x**n is T_l(n)/(n!)**2 with T_l(n) the number of
    permutations of {1..n} whose longest increasing subsequence has length
    at most l.  T_l(n) = n! for l >= n, so the m x m grid with m =
    max(1, min(l, terms-1)) gives the same coefficients at a cost in m:
    the Laplace expansion memoises every column subset, 2**m entries."""
    _check_size(l, terms)
    size = max(1, min(l, terms - 1))
    orders = [[j - k for k in range(size)] for j in range(size)]
    return HalfPowerSeries(Fraction(0), bessel_determinant(orders, terms - 1))


def partitions_max_part(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with every part <= max_part, parts weakly decreasing,
    generated in lexicographically decreasing order: fill the rest of n
    greedily with the largest parts allowed, then drop the trailing 1s and
    lower the last part left.  No recursion, so there is no limit on the
    number of parts."""
    if n < 0 or (n > 0 and max_part < 1):
        return
    parts: list[int] = []
    rest = n
    while True:
        while rest:
            parts.append(min(rest, parts[-1] if parts else max_part))
            rest -= parts[-1]
        yield tuple(parts)
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return
        parts[-1] -= 1
        rest += 1


def standard_tableaux(shape: Sequence[int]) -> int:
    """Number of standard Young tableaux of the given shape, by the hook
    length formula: weight! / prod(hook lengths).  Always an exact integer.
    The shape must be a partition: positive, weakly decreasing parts.  Cell
    (i, j) has hook row_i + height_j - i - j - 1; going up from the bottom
    row, the columns that row i adds to the heights have height i + 1."""
    parts = tuple(shape)
    if any(p <= 0 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"a shape needs positive, weakly decreasing parts, got {parts}")
    heights: list[int] = []
    for i in range(len(parts), 0, -1):
        heights += [i] * (parts[i - 1] - len(heights))
    hook_product = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hook_product *= row + heights[j] - i - j - 1
    return factorial(sum(parts)) // hook_product


def unitary_average(l: int, det_power: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """Haar average over the unitary group U(l) of
    (det U)**det_power * exp(z * Tr(U + U^dagger)), as a series on the
    x = z**2 grading.

    By character expansion the average equals

        sum_{partitions lam, at most l rows}
            z**(2|lam| + l*q) * f(lam) * f(lam + (q^l)) / (|lam|! * (|lam| + l*q)!)

    with q = det_power, f the standard-tableau count, and lam + (q^l) the
    shape obtained by padding lam to l rows and adding q to each row.  The
    sum runs over the conjugate shapes mu = lam' instead, the partitions
    with parts <= l: f is invariant under conjugation, and the conjugate of
    lam + (q^l) is (l,)*q + mu.  The z-exponent 2k + l*q becomes x-exponent
    k + l*q/2, so the result has offset l*q/2 and integer steps.
    """
    _check_size(l, terms)
    if det_power < 0:
        raise ValueError(f"det_power must be >= 0, got {det_power}")
    q = det_power
    # f(mu) once per partition: at q = 0 the two shapes are the same
    coeffs = [
        Fraction(
            sum(
                (f := standard_tableaux(mu)) * (standard_tableaux((l,) * q + mu) if q else f)
                for mu in partitions_max_part(k, l)
            ),
            factorial(k) * factorial(k + l * q),
        )
        for k in range(terms)
    ]
    return HalfPowerSeries(Fraction(l * q, 2), tuple(coeffs))


class IdentityReport(NamedTuple):
    """Outcome of comparing the unitary average against the signed Hankel
    determinant, coefficient by coefficient."""

    l: int
    sign: int
    terms_compared: int
    matched: bool
    mismatch_exponent: Fraction | None = None
    lhs_coefficient: Fraction | None = None
    rhs_coefficient: Fraction | None = None


def check_hankel_identity(l: int, terms: int = 8) -> IdentityReport:
    """Verify that the U(l) average of (det U)^l exp(z Tr(U + U^dagger))
    equals (-1)**(l(l-1)/2) * det[I_{j+k+1}(2z)] coefficientwise.  Both
    sides are x**(l**2/2) times `terms` coefficients, compared index by
    index (a mismatch at k is at exponent offset + k); sides with different
    offsets or lengths raise, so they can never read as a match.  l is
    capped at 8, which bounds the 2**l column subsets that the Laplace
    expansion of the Hankel side memoises.
    """
    if not 1 <= l <= 8:
        raise ValueError(f"identity check supports l in 1..8, got {l}")
    sign = -1 if (l * (l - 1) // 2) % 2 else 1
    lhs = unitary_average(l, l, terms)
    rhs = sign * hankel_determinant(l, terms)
    if (lhs.offset, len(lhs.coeffs)) != (rhs.offset, len(rhs.coeffs)):
        raise ArithmeticError(f"the identity sides for l={l} are misaligned")
    for k, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return IdentityReport(
                l=l,
                sign=sign,
                terms_compared=k,
                matched=False,
                mismatch_exponent=lhs.offset + k,
                lhs_coefficient=a,
                rhs_coefficient=b,
            )
    return IdentityReport(l=l, sign=sign, terms_compared=len(lhs.coeffs), matched=True)
