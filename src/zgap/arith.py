"""Exact rational arithmetic: the `Rational` alias, the multinomial
coefficient, and reference constants kept in factored form.  Factorials
and binomials come from `math` directly.  The package's shared defaults
live here too, because every `zgap` command loads this module and the CLI
parser shows them without importing the modules that use them.

All exact values in this package are `fractions.Fraction` instances, which
already guarantee the invariants we rely on: lowest terms after every
operation, positive denominator, unbounded precision.  The alias
``Rational`` pins that choice in one place.

Everything here is a pure function over immutable values; calls are safe
from concurrent workers without coordination.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

# Default quadrature tolerance of `zgap.bounds` and of `zgap bounds --tol`.
DEFAULT_QUAD_TOL = 1e-8
# Default largest prime of `zgap.moments.arithmetic_factor` and of
# `zgap arithfactor --cutoff`.
DEFAULT_PRIME_CUTOFF = 100_000


def multinomial(n: int, parts: list[int] | tuple[int, ...]) -> int:
    """Exact multinomial coefficient n! / prod(part!).

    The parts must be nonnegative and sum to n; anything else is rejected
    rather than silently reinterpreted.
    """
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be nonnegative, got {parts}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts} do not sum to n={n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


class FactoredConstant:
    """A signed product of integer powers, kept in factored form.

    Used for reference constants whose published form is a product of prime
    powers; storing the factorization verbatim makes transcription auditable.
    Bases must be pairwise distinct and >= 2 (primality is not checked, and
    no factorization routine exists anywhere in this package).
    """

    __slots__ = ("sign", "factors")

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]) -> None:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        bases = [b for b, _ in factors]
        if any(b < 2 for b in bases):
            raise ValueError(f"bases must be >= 2, got {bases}")
        if len(set(bases)) != len(bases):
            raise ValueError(f"bases must be pairwise distinct, got {bases}")
        self.sign = sign
        self.factors = factors

    def value(self) -> Rational:
        out = Fraction(self.sign)
        for base, exp in self.factors:
            out *= Fraction(base) ** exp
        return out
