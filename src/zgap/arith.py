"""Exact rational arithmetic and the combinatorial primitives shared by
every other module.

All exact values in this package are `fractions.Fraction` instances, which
already guarantee the invariants we rely on: lowest terms after every
operation, positive denominator, unbounded precision.  The alias
``Rational`` pins that choice in one place.

Everything here is a pure function over immutable values; calls are safe
from concurrent workers without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


def rational_str(q: Rational) -> str:
    """The "numerator/denominator" form, in lowest terms, used for every
    exact value this package serializes."""
    return f"{q.numerator}/{q.denominator}"


def factorial(n: int) -> int:
    """Exact n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: list[int] | tuple[int, ...]) -> int:
    """Exact multinomial coefficient n! / prod(part!).

    The parts must be nonnegative and sum to n; anything else is rejected
    rather than silently reinterpreted.
    """
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be nonnegative, got {parts}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts} do not sum to n={n}")
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


@dataclass(frozen=True)
class FactoredConstant:
    """A signed product of integer powers, kept in factored form.

    Used for reference constants whose published form is a product of prime
    powers; storing the factorization verbatim makes transcription auditable.
    Bases must be pairwise distinct and >= 2 (primality is not checked, and
    no factorization routine exists anywhere in this package).
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        bases = [b for b, _ in self.factors]
        if any(b < 2 for b in bases):
            raise ValueError(f"bases must be >= 2, got {bases}")
        if len(set(bases)) != len(bases):
            raise ValueError(f"bases must be pairwise distinct, got {bases}")

    def value(self) -> Rational:
        out = Fraction(self.sign)
        for base, exp in self.factors:
            out *= Fraction(base) ** exp
        return out
