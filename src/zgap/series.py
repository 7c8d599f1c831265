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
same degree, is exact there, and it is divided by D**l once.  There is no
rounding anywhere in this module.

Results are `HalfPowerSeries`: x**offset * (c_0 + c_1*x + ...) with the
offset a multiple of 1/2.  Reading x as z**2 turns the Toeplitz result into
the even series of det[I_{j-k}(2z)]; the unitary-average comparisons below
use exactly that identification (z-degree = 2 * x-degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial  # bound by name: perfbench/tracer.py counts calls here

from .arith import rational_str
from . import lis

DEFAULT_TERMS = 12


@dataclass(frozen=True)
class HalfPowerSeries:
    """x**offset * (c_0 + c_1*x + ... + c_{K-1}*x**(K-1)), exact through
    x**known_through: the result type of the determinants and averages."""

    offset: Fraction
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        offset = Fraction(self.offset)
        if (2 * offset).denominator != 1:
            raise ValueError(f"offset must be a multiple of 1/2, got {offset}")
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one retained coefficient")
        # normalize: leading coefficient nonzero unless identically zero
        lead = 0
        while lead < len(coeffs) - 1 and coeffs[lead] == 0:
            lead += 1
        if coeffs[lead] == 0:  # identically zero up to truncation
            lead = 0
        object.__setattr__(self, "offset", offset + lead)
        object.__setattr__(self, "coeffs", coeffs[lead:])

    @property
    def known_through(self) -> Fraction:
        """Largest exponent whose coefficient is guaranteed exact."""
        return self.offset + len(self.coeffs) - 1

    def coefficient(self, exponent: Fraction | int) -> Fraction:
        """Exact coefficient of x**exponent; raises beyond the truncation
        horizon, returns 0 for exponents below the offset or off the parity
        grid."""
        e = Fraction(exponent)
        if e > self.known_through:
            raise ValueError(
                f"coefficient of x**{e} is beyond the horizon {self.known_through}"
            )
        step = e - self.offset
        if step < 0 or step.denominator != 1:
            return Fraction(0)
        return self.coeffs[int(step)]

    def __mul__(self, scalar) -> "HalfPowerSeries":
        """The series times a rational scalar."""
        scalar = Fraction(scalar)
        return HalfPowerSeries(self.offset, tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        """JSON form: exact "num/den" strings plus the leading exponent."""
        return {
            "offset": rational_str(self.offset),
            "coefficients": [rational_str(c) for c in self.coeffs],
        }


class IntegerSeries:
    """Series in s and t with integer coefficients, truncated to the
    weighted degree 2*deg_s + deg_t <= top.  ``rows[a][m]`` is the
    coefficient of s**a * t**m, so ``rows[a]`` has top - 2a + 1 entries; a
    series in t alone is the one-row case.  Operands of a sum or product
    have the same top and the same number of rows.  Weights add under
    multiplication, so every kept coefficient of a sum or product is
    exact."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[list[int]]) -> None:
        self.rows = rows

    def __add__(self, other: "IntegerSeries") -> "IntegerSeries":
        return IntegerSeries([[x + y for x, y in zip(p, q)] for p, q in zip(self.rows, other.rows)])

    def __sub__(self, other: "IntegerSeries") -> "IntegerSeries":
        return IntegerSeries([[x - y for x, y in zip(p, q)] for p, q in zip(self.rows, other.rows)])

    def __mul__(self, other: "IntegerSeries") -> "IntegerSeries":
        out = [[0] * len(row) for row in self.rows]
        for a1, p in enumerate(self.rows):
            for a2, q in enumerate(other.rows[: len(out) - a1]):
                row = out[a1 + a2]
                horizon = len(row)
                for m1, x in enumerate(p[:horizon]):
                    if x:
                        for m2, y in enumerate(q[: horizon - m1], start=m1):
                            row[m2] += x * y
        return IntegerSeries(out)


@dataclass(frozen=True)
class SeriesMatrix:
    """A nonempty square grid over a commutative ring: entries that support
    ``+``, ``-`` and ``*``, such as `IntegerSeries`, int or Fraction."""

    entries: tuple[tuple, ...]

    def __post_init__(self) -> None:
        l = len(self.entries)
        if l == 0 or any(len(row) != l for row in self.entries):
            raise ValueError("entries must form a nonempty square grid")

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


def _bessel_determinant(orders: list[list[int]], terms: int) -> tuple[Fraction, ...]:
    """Coefficients of x**0..x**(terms-1) in det[g_{orders[j][k]}(x)].  Every
    entry is scaled by D = (terms-1)! * (terms-1+n)!, with n the largest
    order, to integer coefficients; the determinant is divided by D**l
    once."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    top = terms - 1
    scale = factorial(top) * factorial(top + max(map(max, orders)))
    g = {
        n: IntegerSeries(
            [[scale // (factorial(m) * factorial(m + n)) if m + n >= 0 else 0 for m in range(terms)]]
        )
        for n in {n for row in orders for n in row}
    }
    det = SeriesMatrix(tuple(tuple(g[n] for n in row) for row in orders)).determinant()
    return tuple(Fraction(c, scale ** len(orders)) for c in det.rows[0])


@lru_cache(maxsize=None)
def hankel_determinant(l: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """det[ I_{j+k+1}(2*sqrt(x)) ] for j,k = 0..l-1, expanded exactly as
    x**(l**2/2) * det[g_{j+k+1}(x)], with `terms` exact coefficients."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    orders = [[j + k + 1 for k in range(l)] for j in range(l)]
    return HalfPowerSeries(Fraction(l * l, 2), _bessel_determinant(orders, terms))


@lru_cache(maxsize=None)
def toeplitz_determinant(l: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """det[ I_{j-k}(2z) ] for j,k = 0..l-1 as an even series in z, returned
    on the x = z**2 grading as det[g_{j-k}(x)] through x**(terms-1): the
    coefficient of x**n is T_l(n)/(n!)**2 with T_l(n) the number of
    permutations of {1..n} whose longest increasing subsequence has length
    at most l."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    orders = [[j - k for k in range(l)] for j in range(l)]
    return HalfPowerSeries(Fraction(0), _bessel_determinant(orders, terms))


@lru_cache(maxsize=None)
def unitary_average(l: int, det_power: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """Haar average over the unitary group U(l) of
    (det U)**det_power * exp(z * Tr(U + U^dagger)), as a series on the
    x = z**2 grading.

    By character expansion the average equals

        sum_{partitions lam, at most l rows}
            z**(2|lam| + l*q) * f(lam) * f(lam + (q^l)) / (|lam|! * (|lam| + l*q)!)

    with q = det_power, f the standard-tableau count, and lam + (q^l) the
    shape obtained by padding lam to l rows and adding q to each row.  The
    z-exponent 2k + l*q becomes x-exponent k + l*q/2, so the result has
    offset l*q/2 and integer steps.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if det_power < 0:
        raise ValueError(f"det_power must be >= 0, got {det_power}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    q = det_power
    coeffs = []
    for k in range(terms):
        total = Fraction(0)
        for shape in lis.partitions_max_length(k, l):
            padded = tuple(p + q for p in shape) + (q,) * (l - len(shape))
            padded = tuple(p for p in padded if p > 0)
            total += Fraction(
                lis.standard_tableaux(shape) * lis.standard_tableaux(padded),
                factorial(k) * factorial(k + l * q),
            )
        coeffs.append(total)
    return HalfPowerSeries(Fraction(l * q, 2), tuple(coeffs))


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of comparing the unitary average against the signed Hankel
    determinant, coefficient by coefficient."""

    l: int
    sign: int
    terms_compared: int
    matched: bool
    mismatch_exponent: Fraction | None = None
    lhs_coefficient: Fraction | None = None
    rhs_coefficient: Fraction | None = None

    def to_json_dict(self) -> dict:
        out = {
            "l": self.l,
            "sign": self.sign,
            "terms_compared": self.terms_compared,
            "matched": self.matched,
        }
        if not self.matched:
            out["mismatch_exponent"] = rational_str(self.mismatch_exponent)
            out["lhs_coefficient"] = rational_str(self.lhs_coefficient)
            out["rhs_coefficient"] = rational_str(self.rhs_coefficient)
        return out


def check_hankel_identity(
    l: int,
    terms: int = 8,
    lhs: HalfPowerSeries | None = None,
    rhs: HalfPowerSeries | None = None,
) -> IdentityReport:
    """Verify that the U(l) average of (det U)^l exp(z Tr(U + U^dagger))
    equals (-1)**(l(l-1)/2) * det[I_{j+k+1}(2z)] coefficientwise through the
    common truncation horizon.

    `lhs`/`rhs` exist so tests can inject corrupted series; by default both
    sides are computed fresh.  l is capped at 8, which bounds the 2**l
    column subsets that the Laplace expansion of the Hankel side memoises.
    """
    if not 1 <= l <= 8:
        raise ValueError(f"identity check supports l in 1..8, got {l}")
    sign = -1 if (l * (l - 1) // 2) % 2 else 1
    if lhs is None:
        lhs = unitary_average(l, l, terms)
    if rhs is None:
        rhs = sign * hankel_determinant(l, terms)
    else:
        rhs = sign * rhs
    horizon = min(lhs.known_through, rhs.known_through)
    exponent = min(lhs.offset, rhs.offset)
    compared = 0
    while exponent <= horizon:
        a = lhs.coefficient(exponent)
        b = rhs.coefficient(exponent)
        if a != b:
            return IdentityReport(
                l=l,
                sign=sign,
                terms_compared=compared,
                matched=False,
                mismatch_exponent=exponent,
                lhs_coefficient=a,
                rhs_coefficient=b,
            )
        compared += 1
        exponent += 1
    return IdentityReport(l=l, sign=sign, terms_compared=compared, matched=True)
