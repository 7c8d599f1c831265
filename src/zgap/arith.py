"""The layer below every other module: the package's shared defaults, the
tolerance check, the multinomial coefficient and the partition generator.

Every `zgap` command loads this module, so what lives here costs no
command an extra import:
* the defaults, which the CLI parser shows without importing the modules
  that use them;
* `check_tolerance`, which `zgap.bounds` runs at its entry points and the
  CLI runs before it imports `zgap.bounds`, so a bad `--tol` is refused
  before the library loads;
* `partitions_max_part`, which both `zgap.moments` and `zgap.series` sum
  over, so a `moments` or `bounds` process does not load `zgap.series`.
`multinomial` stays here, and stays bound in `zgap.moments`, because the
benchmark tracer counts its calls where that module binds it.  Exact
values everywhere in the package are `fractions.Fraction` instances;
factorials and binomials come from `math` directly.

Everything here is a pure function over immutable values; calls are safe
from concurrent workers without coordination.
"""

from __future__ import annotations

import math
from typing import Iterator

# Default quadrature tolerance of `zgap.bounds` and of `zgap bounds --tol`.
DEFAULT_QUAD_TOL = 1e-8
# Default largest prime of `zgap.moments.arithmetic_factor` and of
# `zgap arithfactor --cutoff`.
DEFAULT_PRIME_CUTOFF = 100_000
# Default series terms of `zgap.series` and of `zgap hankel --terms`.
DEFAULT_TERMS = 12


def check_tolerance(name: str, tol: float) -> None:
    """Reject a tolerance that would end a bisection or a quadrature before
    it starts: nan compares false with everything, and inf or a value <= 0
    is no tolerance at all."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {tol!r}")


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
