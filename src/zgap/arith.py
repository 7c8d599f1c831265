"""The package's shared defaults, and the multinomial coefficient.

The defaults live here because every `zgap` command loads this module and
the CLI parser shows them without importing the modules that use them.
`multinomial` stays here, and stays bound in `zgap.moments`, because the
benchmark tracer counts its calls where that module binds it.  Exact
values everywhere in the package are `fractions.Fraction` instances;
factorials and binomials come from `math` directly.

Everything here is a pure function over immutable values; calls are safe
from concurrent workers without coordination.
"""

from __future__ import annotations

import math

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
