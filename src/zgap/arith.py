"""The layer below every other module: the package's shared defaults, the
tolerance check, the multinomial coefficient and Pieri's rule.

Every `zgap` command loads this module, so what lives here costs no
command an extra import:
* the defaults, which the CLI parser shows without importing the modules
  that use them;
* `check_tolerance`, which `zgap.bounds` runs at its entry points and the
  CLI runs before it imports `zgap.bounds`, so a bad `--tol` is refused
  before the library loads;
* `add_strip`, which both `zgap.moments` and `zgap.series` count with, so
  a `moments` or `bounds` process does not load `zgap.series`.
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


def add_strip(shapes: dict, cells: int, rows: int) -> dict:
    """Pieri's rule on counts: {partition: count}, each partition an
    unpadded tuple of positive parts, to the partitions of at most `rows`
    >= 1 parts reached by adding a horizontal strip of `cells` cells, the
    counts of a shape reached more than once summed.  Row i > 0, and a new
    row below the last if there is room, may grow by row i - 1's length
    less its own; the first row takes the cells left.  Strips of a_1, ...,
    a_r cells from () reach kappa K(kappa, a) times, the Kostka number, so
    unit strips count its standard tableaux."""
    grown: dict = {}
    for shape, count in shapes.items():
        padded = [*shape, 0][:rows]
        placing, placed = [(padded, cells)], []  # (rows so far, cells left)
        for i, (above, part) in enumerate(zip(padded, padded[1:]), 1):
            if above > part:
                for new, rest in placing.copy():
                    for a in range(1, min(above - part, rest) + 1):
                        longer = new.copy()
                        longer[i] += a
                        (placed if a == rest else placing).append((longer, rest - a))
        for new, rest in placing + placed:  # no two share a list: edit in place
            new[0] += rest
            if not new[-1]:
                new.pop()
            key = tuple(new)
            grown[key] = grown.get(key, 0) + count
    return grown
