"""Exact truncated series for modified Bessel functions of the first kind
and the Hankel/Toeplitz determinants built from them.

Grading convention
------------------
Every series here lives on a square-root grading: a ``HalfPowerSeries`` with
offset ``o`` (a multiple of 1/2) and coefficients ``(c_0, ..., c_{K-1})``
represents

    x**o * (c_0 + c_1*x + ... + c_{K-1}*x**(K-1))

exactly.  Equivalently it is a series in t = sqrt(x) supported on a single
parity class, which is all that ever arises from Bessel entries; this avoids
a general Puiseux engine.  The modified Bessel function is taken in its
standard series form

    I_nu(2*sqrt(x)) = sum_{m>=0} x**((nu + 2m)/2) / (m! * (m+nu)!),

so ``bessel_i_sqrt(nu, K)`` has offset nu/2.  Reading x as z**2 turns the
same object into the series of I_nu(2z); the unitary-average comparisons
below use exactly that identification (z-degree = 2 * x-degree).

Truncation contract: every operation returns only coefficients it can
guarantee exactly; there is no rounding anywhere in this module.  Products
keep min(K1, K2) coefficients, sums are cut at the earlier of the two
knowledge horizons.

All values are immutable; callers may parallelize over matrix entries or
over the determinant dimension freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .arith import factorial, rational_str
from . import lis

DEFAULT_TERMS = 12


@dataclass(frozen=True)
class HalfPowerSeries:
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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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

    def __neg__(self) -> "HalfPowerSeries":
        return HalfPowerSeries(self.offset, tuple(-c for c in self.coeffs))

    def __add__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        a, b = (self, other) if self.offset <= other.offset else (other, self)
        shift = b.offset - a.offset
        if shift.denominator != 1:
            raise ValueError(
                f"cannot add series on different parity classes "
                f"(offsets {a.offset} and {b.offset})"
            )
        shift = int(shift)
        horizon = min(a.offset + len(a.coeffs), b.offset + len(b.coeffs))
        length = int(horizon - a.offset)
        out = []
        for k in range(length):
            c = a.coeffs[k] if k < len(a.coeffs) else Fraction(0)
            if 0 <= k - shift < len(b.coeffs):
                c += b.coeffs[k - shift]
            out.append(c)
        return HalfPowerSeries(a.offset, tuple(out))

    def __sub__(self, other: "HalfPowerSeries") -> "HalfPowerSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HalfPowerSeries):
            k = min(len(self.coeffs), len(other.coeffs))
            out = [Fraction(0)] * k
            for i, a in enumerate(self.coeffs[:k]):
                if a == 0:
                    continue
                for j in range(k - i):
                    out[i + j] += a * other.coeffs[j]
            return HalfPowerSeries(self.offset + other.offset, tuple(out))
        scalar = Fraction(other)
        return HalfPowerSeries(self.offset, tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        """JSON form: exact "num/den" strings plus the leading exponent."""
        return {
            "offset": rational_str(self.offset),
            "coefficients": [rational_str(c) for c in self.coeffs],
        }


@dataclass(frozen=True)
class SeriesMatrix:
    """A square grid of series sharing one truncation budget."""

    entries: tuple[tuple[HalfPowerSeries, ...], ...]

    def __post_init__(self) -> None:
        l = len(self.entries)
        if l == 0 or any(len(row) != l for row in self.entries):
            raise ValueError("entries must form a nonempty square grid")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def scale_row(self, row: int, scalar) -> "SeriesMatrix":
        rows = [list(r) for r in self.entries]
        rows[row] = [scalar * s for s in rows[row]]
        return SeriesMatrix(tuple(tuple(r) for r in rows))

    def determinant(self) -> HalfPowerSeries:
        """Exact determinant by `laplace_determinant`.

        When all entries keep the same number of coefficients, every term of
        a minor ends at the same truncation horizon, so a minor whose
        leading coefficients cancel still carries every coefficient the
        full products would: the result has the coefficients and the
        horizon of the permutation expansion."""
        return laplace_determinant(self.entries)


def laplace_determinant(rows: Sequence[Sequence]):
    """Determinant of a nonempty square grid whose entries support ``+``,
    ``-`` and ``*``, by Laplace expansion along the rows, memoised on the
    set of columns already used: the minor on rows r..l-1 depends only on
    which r columns rows 0..r-1 took.  That is l*2**(l-1) - l entry
    products (186 at l = 6, 1016 at l = 8); the permutation expansion needs
    l!*(l-1)."""
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


def bessel_i_sqrt(order: int, terms: int) -> HalfPowerSeries:
    """Series of I_order(2*sqrt(x)): offset order/2, coefficient of
    x**(order/2 + m) equal to 1/(m! * (m+order)!)."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    coeffs = tuple(
        Fraction(1, factorial(m) * factorial(m + order)) for m in range(terms)
    )
    return HalfPowerSeries(Fraction(order, 2), coeffs)


@lru_cache(maxsize=None)
def hankel_determinant(l: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """det[ I_{j+k+1}(2*sqrt(x)) ] for j,k = 0..l-1, expanded exactly.

    Every permutation product has leading exponent l**2/2, so the result has
    offset l**2/2 and `terms` exact coefficients.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    matrix = SeriesMatrix(
        tuple(
            tuple(bessel_i_sqrt(j + k + 1, terms) for k in range(l))
            for j in range(l)
        )
    )
    return matrix.determinant()


@lru_cache(maxsize=None)
def toeplitz_determinant(l: int, terms: int = DEFAULT_TERMS) -> HalfPowerSeries:
    """det[ I_{j-k}(2z) ] for j,k = 0..l-1 as an even series in z, returned
    on the x = z**2 grading: the coefficient of x**n is T_l(n)/(n!)**2 with
    T_l(n) the number of permutations of {1..n} whose longest increasing
    subsequence has length at most l."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    matrix = SeriesMatrix(
        tuple(
            tuple(bessel_i_sqrt(abs(j - k), terms) for k in range(l))
            for j in range(l)
        )
    )
    return matrix.determinant()


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
    sides are computed fresh.
    """
    if not 1 <= l <= 4:
        raise ValueError(f"identity check is desk-scale only, l in 1..4, got {l}")
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
