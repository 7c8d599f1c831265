"""Certification pipeline for lower bounds on normalized gaps between zeros
of derivatives of Hardy's Z-function, conditional on the joint-moments
hypothesis.

Pipeline (all at l = 4):

1. From the exact coefficient ratios A(1..4) (`_exact_prelude`) build the
   closed-form value

       X = (A*B*(C-D) + C*(B**2 + C*D - 2*B*D)) / (16*(B-C)*(C-D)).

2. derive the weight-polynomial parameters (v1, v2, v3) and lambda by
   matching coefficients in the quartic factorization

       t**8 - 4*v3*t**6 + 6*v2*t**4 - 4*v1*t**2 + lambda
           = (t**4 + s2*t**2 + s4)**2 - (s1*t**3 + s3*t)**2        (*)

   with s1 = tau1*X, s2 = tau2*X, s3 = tau3*X**2, s4 = tau4*X**2 and the
   tau's rational in A..D.  Everything up to here is exact rational
   arithmetic; lambda = s4**2 in particular is kept exact.

3. re-verify the derived parameters by quadrature of the log-form equation

       integral_0^inf log(1 + g(u)/((2l-1)*lambda)) du/u**2 = l*pi,

   where g(u) = (2l-1) * sum_h C(l,h) v_h u**(2h) must be increasing on the
   positive axis (every exact v_h >= 0 proves it).  Its residual falls
   strictly with lambda, so it is checked by a three-quadrature sign
   bracket, not solved: positive at lambda - delta and negative at
   lambda + delta puts its root within delta of the exact lambda.  The
   rational-integrand form, whose value must be pi, is no second equation:
   by parts its deviation is that residual / l, so `pi_integral` is a second
   quadrature of the centre value of `lambda_consistency`.  Sign
   conventions: (*) is used verbatim for extraction; the rational integrand
   carries all-plus signs in its denominator (the two polynomials are
   related by t**2 <-> -u**2), as the quadrature oracle below confirms.

4. re-solve for X by bisection on the defining polynomial equation and
   compare with the closed form, check the bound sqrt(X) against the
   claimed threshold by exact rational comparison, and emit a certificate.

Because the closed-form map of steps 1-2 satisfies its own defining
equations identically in the input data, internal consistency alone cannot
detect a corrupted coefficient table; the certificate therefore also
cross-checks every entry of the table against the column that the general
joint-moment formula of `zgap.moments` computes (`data_integrity` check).

Factor rule of `solve_lambda` (l = 4 only): with Q(y) = lambda +
sum_h C(4,h) v_h y**h, Q(-t**2) = F(t)*F(-t) as in (*), where
F(t) = t**4 + s1*t**3 + s2*t**2 + s3*t + s4 is the Hurwitz factor (every
root t_k in Re t < 0).  By residues over the roots of F the log form equals
pi * sum_k 1/(-t_k) = pi*s3/s4, so the lambda equation says s3 = 4*s4.
`_factor_residual` fixes s4 = sqrt(lambda) and s3 = 4*s4, reads s2 and s1
off the t**2 and t**6 coefficients of (*), and compares the t**4
coefficient with 6*v2.  In exact arithmetic its sign is that of the
log-form residual R at every lambda > 0:

- at a Hurwitz point, F is the Hurwitz factor of the weight (v1, v2', v3)
  whose root is lambda, where 6*v2' = s2**2 + 2*s4 - 2*s1*s3;
- R rises with v2 and falls with lambda, so 6*v2 - 6*v2' has the sign of
  lambda* - lambda, for lambda* the root at v;
- F stays Hurwitz for every lambda >= lambda*: for a root to reach the
  imaginary axis at i*omega, Q'(omega**2) would have to be 0, where Q' is Q
  with v2' in place of v2, and Q' > 0 on [0, inf) while v2' > v2 > 0;
- so a point that is not Hurwitz, or has no real s1 (2*s2 + 4*v3 <= 0),
  lies below lambda*, and the rule returns +1 there.

As s1, s3, s4 > 0, F is Hurwitz exactly when
Delta3 = s1*s2*s3 - s3**2 - s1**2*s4 > 0, in floats too: the other
Routh-Hurwitz conditions follow, since rounding is monotone.

It needs only +, -, *, / and sqrt, all correctly rounded.  `solve_lambda`
is the one lambda solver and uses this rule; the certificate's
`lambda_consistency` and `pi_integral` checks stay on quadrature, so they
remain independent of it.

Quadrature contract: every integral is one `integrate_half_line` call,
which splits (0, inf) at u = 1 and integrates f(s) + f(1/s)/s**2, the
head at u = s and the tail at u = 1/s, over (0, 1) by one
`integrate_unit_interval` call.  Its 4 equal panels are integrated once by
the Gauss-Kronrod 7/15 rule (QUADPACK qk15): the 15-point Kronrod value is
the estimate, and its distance from the 7-point Gauss value, which reuses 7
of the same 15 integrand evaluations, is the error estimate.
`_panel_estimates` reads the 15 nodes from one flat table, -x before +x
and the centre last, and sums them in that fixed order.  A panel whose
error estimate exceeds min(1e-12, tol) in absolute value, and 1e-15
relative to the integral of |f| over it, is bisected.  Four starting
panels keep the cost flat: on the certificate integrands a quadrature
spends 60 evaluations at tol 1e-8 (the default), 1e-13 and 1e-17 alike,
where one starting panel spends 45-75, 75 and 105.  A panel still
unresolved after 52 bisections, or a 4097th panel in one integral, raises
`QuadratureError` at once.  The one special case is the log integrand
log(1 + P(u**2)/lambda)/u**2 (-> c near u = 0): for u > 1, d the degree
of P, it takes out the exact term 2d*log(u)/u**2, which would leave a log
singularity at s = 0 and integrates to 2d, and is
y*log((lambda*y**d + R(y))/lambda) at y = 1/u**2, R(y) = y**d * P(1/y).
Everything is deterministic: repeated runs at fixed tolerances produce
bit-identical certificates.

The exact prelude of a coefficient column (steps 1-2) is derived once per
process and shared by `certify_bound` and `perturbed_x_values`; the float
re-verification of steps 3-4 and the `data_integrity` cross-check run on
every call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .arith import DEFAULT_QUAD_TOL, check_tolerance
from . import moments

PANEL_TOL = 1e-12
_MAX_PANEL_DEPTH = 52
_PANEL_BUDGET = 4096  # panels per integral; certificates use 4
_ROUNDOFF = 1e-15  # panels cannot beat this relative to their own magnitude

# claimed thresholds for the certified bounds sqrt(X), by derivative order
THRESHOLDS: dict[int, Fraction] = {1: Fraction(198, 100), 2: Fraction(171, 100)}


class QuadratureError(ValueError):
    """Raised when a panel stays unresolved at the depth limit, or an integral
    exhausts its panel budget; carries that panel's error estimate, or the
    sum over the panels accepted so far.  A `ValueError`: the input asked
    for an integral that the tolerance and budget cannot deliver."""

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (achieved error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


# The Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15), one row per node:
# (node x, Kronrod weight, Gauss weight), each nonnegative node listed once
# below and expanded to -x before +x, the centre last.  Nodes +-x carry the
# same weights.  The Gauss weight is 0 at the eight nodes that only the
# Kronrod extension adds.
_GAUSS_KRONROD_15 = tuple(
    (sign * x, wk, wg)
    for x, wk, wg in (
        (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
        (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
         0.129484966168869693270611432679082),
        (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
        (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
         0.279705391489276667901467771423780),
        (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
        (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
         0.381830050505118944950369775488975),
        (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
        (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327),
    )
    for sign in ((-1.0, 1.0) if x else (1.0,))
)


def _panel_estimates(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float, float]:
    """(Kronrod estimate, |Kronrod - Gauss|, integral of |f|) over (a, b)
    from 15 evaluations of f, one per node of the table in its order."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    kronrod = gauss = magnitude = 0.0
    for x, wk, wg in _GAUSS_KRONROD_15:
        value = f(mid + half * x)  # mid + half*(-x) is mid - half*x, bit for bit
        kronrod += wk * value
        gauss += wg * value
        magnitude += wk * abs(value)
    return half * kronrod, half * abs(kronrod - gauss), half * magnitude


def integrate_unit_interval(f: Callable[[float], float], tol: float = DEFAULT_QUAD_TOL) -> float:
    """Adaptive composite integration of f over (0, 1) per the module
    quadrature contract.  Endpoints are never evaluated (Gauss-Kronrod
    nodes are interior)."""
    threshold = min(PANEL_TOL, tol)
    panels = 0
    accepted_error = 0.0

    def panel(a: float, b: float, depth: int) -> float:
        nonlocal panels, accepted_error
        panels += 1
        if panels > _PANEL_BUDGET:
            raise QuadratureError(f"no convergence within {_PANEL_BUDGET} panels", accepted_error)
        value, err, magnitude = _panel_estimates(f, a, b)
        if err <= max(threshold, _ROUNDOFF * magnitude):
            accepted_error += err
            return value
        if depth >= _MAX_PANEL_DEPTH:
            raise QuadratureError(f"panel ({a!r}, {b!r}) unresolved at depth {depth}", err)
        mid = 0.5 * (a + b)
        return panel(a, mid, depth + 1) + panel(mid, b, depth + 1)

    return sum(panel(i / 4, (i + 1) / 4, 0) for i in range(4))


def integrate_half_line(f: Callable[[float], float], tol: float = DEFAULT_QUAD_TOL) -> float:
    """Integral of f over (0, inf), split at u = 1: one
    `integrate_unit_interval` call on f(s) + f(1/s)/s**2, the head at u = s
    and the tail at u = 1/s."""
    return integrate_unit_interval(lambda s: f(s) + f(1.0 / s) / (s * s), tol)


def _log_residual_from_coeffs(coeffs: Sequence[float], lam: float, quad_tol: float) -> float:
    """integral_0^inf log(1 + P(u**2)/lam) du/u**2  -  l*pi, where
    P(y) = sum_h coeffs[h-1] * y**h and l = len(coeffs) (coeffs[h-1] =
    C(l,h) v_h for the standard weight polynomial).  Strictly decreasing in
    lam (the integrand is), which is what makes the sign bracket of the
    certificate's `lambda_consistency` row (`_lambda_bracket`) certified.
    For u > 1 the integrand has its 2d*log(u)/u**2 term taken out, per the
    module quadrature contract."""
    if not (lam > 0.0 and all(x >= 0.0 for x in coeffs)):
        raise ValueError("the log form needs lambda > 0 and coefficients >= 0")
    c = [float(x) for x in coeffs]
    while c and c[-1] == 0.0:  # d = len(c), the degree of P
        c.pop()

    def integrand(u: float) -> float:
        if u > 1.0:  # y = 1/u**2: lam*y**d + R(y) by Horner from lam, with no float **
            y = 1.0 / (u * u)
            acc = lam
            for ck in c:
                acc = acc * y + ck
            return y * math.log(acc / lam)
        y = u * u  # > 0: no node sits at u = 0
        p = 0.0  # P(y) by Horner
        for ck in reversed(c):
            p = (p + ck) * y
        return math.log1p(p / lam) / y

    return integrate_half_line(integrand, quad_tol) + 2 * len(c) - len(coeffs) * math.pi


def _weight_coeffs(v: Sequence[float]) -> list[float]:
    """[C(l,h) v_h for h = 1..l] as floats, with v_l = 1 appended to v, so
    l = len(v) + 1."""
    v_full = tuple(v) + (1.0,)
    return [math.comb(len(v_full), h) * float(vh) for h, vh in enumerate(v_full, start=1)]


def _factor_residual(v: Sequence[float], lam: float) -> float:
    """A residual with the sign of the l = 4 log-form residual at (v, lam),
    by the factor rule (module docstring): 6*v2 - 6*v2', where v2' is the
    v2 whose root is lam, or +1 where no Hurwitz factor with s3 = 4*s4
    exists.  Needs lam > 0 and every v_h > 0."""
    v1, v2, v3 = v
    if not (lam > 0.0 and v1 > 0.0 and v2 > 0.0 and v3 > 0.0):  # nan fails each
        raise ValueError("the factor rule needs lambda > 0 and every v_h > 0")
    s4 = math.sqrt(lam)
    s3 = 4.0 * s4
    s2 = 8.0 * s4 - 2.0 * v1 / s4
    q = 2.0 * s2 + 4.0 * v3
    if not q > 0.0:
        return 1.0
    s1 = math.sqrt(q)
    # s1, s3, s4 > 0 and rounding is monotone, so Delta3 > 0 gives s1*s2 > s3 and s2 > 0
    if not s1 * s2 * s3 > s3 * s3 + s1 * s1 * s4:
        return 1.0
    return 6.0 * v2 - (s2 * s2 + 2.0 * s4 - 2.0 * s1 * s3)


def _bisect(above: Callable[[float], bool], lo: float, hi: float, tol: float) -> float:
    """Midpoint of the bracket [lo, hi] after halving it, keeping the half
    where `above(mid)` puts the root, until it is no wider than tol or no
    float lies strictly between its ends."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _root_of_decreasing(residual: Callable[[float], float], tol: float) -> float:
    """The root of a residual that falls with lambda: bracket its sign by
    factors of 8 from lambda = 1 within [1e-6, 1e6], then `_bisect` until
    the bracket is no wider than tol."""
    lo = hi = 1.0
    r = residual(1.0)
    if r > 0.0:  # residual decreasing: root above
        while r > 0.0:
            hi *= 8.0
            if hi > 1e6:
                raise ValueError("no sign change for lambda in (1, 1e6]")
            r = residual(hi)
    else:
        while r < 0.0:
            lo /= 8.0
            if lo < 1e-6:
                raise ValueError("no sign change for lambda in [1e-6, 1)")
            r = residual(lo)
    return _bisect(lambda lam: residual(lam) > 0.0, lo, hi, tol)


def solve_lambda(v: Sequence[float], *, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """The root of the l = 4 lambda equation for v = (v1, v2, v3), v4 = 1
    implicit, every v_h > 0: `_root_of_decreasing` on the sign of
    `_factor_residual`, to a bracket no wider than quad_tol."""
    check_tolerance("quad_tol", quad_tol)
    if len(v) != 3:
        raise ValueError(f"solve_lambda needs v = (v1, v2, v3), got {len(v)} entries")
    return _root_of_decreasing(lambda lam: _factor_residual(v, lam), quad_tol)


def rational_form_deviation(
    v: Sequence[float], lam: float, *, quad_tol: float = DEFAULT_QUAD_TOL
) -> float:
    """Deviation from pi of the rational-integrand form of the lambda
    equation for v = (v_1 .. v_{l-1}), v_l = 1 implicit,

        integral_{-inf}^{inf}
            (sum_h C(l-1,h-1) v_h u**(2h-2))
          / (sum_h C(l,h)   v_h u**(2h) + lambda)  du   -   pi,

    evaluated as twice the half-line integral (the integrand is even)."""
    if not (lam > 0.0 and all(vh >= 0.0 for vh in v)):  # nan fails both
        raise ValueError("the rational form needs lambda > 0 and every v_h >= 0")
    l = len(v) + 1
    num_coeffs = [math.comb(l - 1, h - 1) * vh for h, vh in enumerate((*v, 1.0), start=1)]
    den_coeffs = _weight_coeffs(v)

    def integrand(u: float) -> float:
        y = u * u
        num = 0.0
        for c in reversed(num_coeffs):
            num = num * y + c
        den = 0.0
        for c in reversed(den_coeffs):
            den = (den + c) * y
        return num / (den + lam)

    return 2.0 * integrate_half_line(integrand, quad_tol) - math.pi


def closed_form_x(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Fraction:
    """Closed-form optimizer value

        X = (a*b*(c-d) + c*(b**2 + c*d - 2*b*d)) / (16*(b-c)*(c-d)),

    in exact rational arithmetic; b = c or c = d, a zero denominator, is
    rejected by exact comparison."""
    a, b, c, d = map(Fraction, (a, b, c, d))
    if b == c or c == d:
        raise ValueError("degenerate ratio data: need b != c and c != d")
    return (a * b * (c - d) + c * (b * b + c * d - 2 * b * d)) / (16 * (b - c) * (c - d))


class DerivedParams(NamedTuple):
    """Exact parameter set extracted from the quartic factorization (*):
    (v_1, v_2, v_3) and lambda of the l = 4 weight polynomial, and the
    sigma's they come from.  Callers that integrate take `float()` of
    these."""

    v_exact: tuple[Fraction, Fraction, Fraction]
    lam_exact: Fraction
    sigma: tuple[Fraction, Fraction, Fraction, Fraction]


def derive_params(
    a: Fraction, b: Fraction, c: Fraction, d: Fraction, x: Fraction
) -> DerivedParams:
    """Derive (v1, v2, v3, lambda) from the ratio data and X by equating
    coefficients in the factorization (*):

        v3 = (s1**2 - 2*s2)/4,  v2 = (s2**2 + 2*s4 - 2*s1*s3)/6,
        v1 = (s3**2 - 2*s2*s4)/4,  lambda = s4**2,

    with s1 = tau1*x, s2 = tau2*x, s3 = tau1*x**2/c and s4 = s3/4, where
    tau1 = 4*(c-d)/(d*(b-c)) and tau2 = (b-d)/(d*(b-c)).

    These closed forms are validated, not trusted: tests expand both sides
    of (*) exactly, and the certificate re-verifies lambda and X by
    independent quadrature and root finding.
    """
    b, c, d, x = map(Fraction, (b, c, d, x))
    if b == c or c == d:
        raise ValueError("degenerate ratio data: need b != c and c != d")
    if c == 0 or d == 0:
        raise ValueError("degenerate ratio data: need c != 0 and d != 0")
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    tau1 = 4 * (c - d) / (d * (b - c))
    tau2 = (b - d) / (d * (b - c))
    s1, s2 = tau1 * x, tau2 * x
    s3 = tau1 * x * x / c
    s4 = s3 / 4
    return DerivedParams(
        v_exact=(
            (s3 * s3 - 2 * s2 * s4) / 4,
            (s2 * s2 + 2 * s4 - 2 * s1 * s3) / 6,
            (s1 * s1 - 2 * s2) / 4,
        ),
        lam_exact=s4 * s4,
        sigma=(s1, s2, s3, s4),
    )


def solve_x(
    v: Sequence[float],
    lam: float,
    ratios: Sequence[Fraction | float] | Mapping[int, Fraction | float],
    *,
    tol: float = DEFAULT_QUAD_TOL,
) -> float:
    """The unique positive root of

        sum_{h=1}^{l} (2l-1)/(2h-1) * C(l,h) * B(h) * v_h * X**h
            = (2l-1) * lambda * B(0),

    for v = (v_1 .. v_{l-1}), v_l = 1 implicit and B(h) = ratios[h], by
    bisection; the left side is strictly increasing from 0 when all
    v_h >= 0 and all B(h) > 0."""
    check_tolerance("tol", tol)
    v_full = tuple(float(t) for t in v) + (1.0,)
    l = len(v_full)
    if not all(t >= 0.0 for t in v_full):
        raise ValueError("solve_x requires all v_h >= 0")
    capB = {h: float(ratios[h]) for h in range(l + 1)}
    if not all(t > 0.0 for t in capB.values()):
        raise ValueError("solve_x requires all ratios positive")
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    rhs = (2 * l - 1) * lam * capB[0]
    coeffs = [
        (2 * l - 1) / (2 * h - 1) * math.comb(l, h) * capB[h] * v_full[h - 1]
        for h in range(l, 0, -1)
    ]

    def lhs(xv: float) -> float:
        out = 0.0
        for c in coeffs:  # Horner, highest h first
            out = (out + c) * xv
        return out

    lo, hi = 0.0, 1.0
    while lhs(hi) - rhs < 0.0:
        hi *= 2.0
        if hi > 1e3:
            raise ValueError("no sign change for X in (0, 1e3]")
    return _bisect(lambda xv: lhs(xv) - rhs < 0.0, lo, hi, tol)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual: float


class BoundCertificate(NamedTuple):
    """Full audit trail of one certification run.  It stores the exact
    values; its one float, `bound` = sqrt(X), is computed from `float()` of
    X, and the certified threshold is THRESHOLDS[n]."""

    n: int
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    x_exact: Fraction
    v_exact: tuple[Fraction, Fraction, Fraction]
    lam_exact: Fraction
    checks: tuple[CheckResult, ...]
    quad_tol: float

    @property
    def valid(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def bound(self) -> float:
        """The certified lower bound sqrt(X), as a float."""
        return math.sqrt(float(self.x_exact))


def _integrity_checks(n: int, coefficients: Mapping[int, Fraction]) -> CheckResult:
    """The `data_integrity` row: every entry h = 0..4 of the coefficient data
    for n in {1, 2} against the (n+1, n) column of the general joint-moment
    formula, `moments._column`.  The residual counts the entries that differ."""
    column = moments._column((n + 1, n), 4)
    mismatches = sum(Fraction(coefficients[h]) != column[h] for h in range(5))
    return CheckResult("data_integrity", not mismatches, float(mismatches))


def _column_key(coefficients: Mapping[int, Fraction]) -> tuple[tuple[int, int], ...]:
    """The coefficient column b[0..4], each entry a Fraction or an int, as
    the five (numerator, denominator) pairs that `_exact_prelude` reads."""
    return tuple((coefficients[h].numerator, coefficients[h].denominator) for h in range(5))


@lru_cache(maxsize=len(THRESHOLDS))
def _exact_prelude(
    column: tuple[tuple[int, int], ...],
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction, DerivedParams]:
    """The exact part of a certificate for the coefficient column b[0..4],
    given as its `_column_key`:

        B(h) = b[h] / (b[4] * 2**(8-2h))  (so B(4) = 1),
        A(h) = (2h-1)/(4*|2h-3|) * b[h-1]/b[h]  (= |(2h-1)/(2h-3)| * B(h-1)/B(h)),

    in which the arithmetic factor multiplying every b cancels; then the
    inputs (a, b, c, d) = A(1..4), the closed-form X built from them, and
    the parameters derived from both.  A zero b[h], h >= 1, raises
    ZeroDivisionError.

    Memoised, one entry per certified derivative order, so a column's
    prelude is derived once per process; every value returned is immutable
    (B(0..4) is a tuple indexed by h), because every caller shares it."""
    b = [Fraction(*ratio) for ratio in column]
    capB = tuple(b[h] / (b[4] * (1 << (8 - 2 * h))) for h in range(5))
    inputs = tuple(Fraction(2 * h - 1, 4 * abs(2 * h - 3)) * b[h - 1] / b[h] for h in range(1, 5))
    x_exact = closed_form_x(*inputs)
    return capB, inputs, x_exact, derive_params(*inputs, x_exact)


def _lambda_bracket(
    coeffs: Sequence[float], lam: float, delta: float, quad_tol: float
) -> CheckResult:
    """The `lambda_consistency` row: three quadratures r(lam - delta),
    r(lam), r(lam + delta) of the log-form residual at quad_tol.  r is
    strictly decreasing in lambda, so r(lam - delta) > 0 > r(lam + delta)
    proves its root lies within delta of lam.  The residual is the distance
    from lam to the root by one secant-slope Newton step,
    |r(lam)| * 2*delta / (r(lam - delta) - r(lam + delta)).  A window that
    reaches lambda <= 0 fails with residual inf."""
    if not lam > delta:
        return CheckResult("lambda_consistency", False, math.inf)
    below, at, above = (
        _log_residual_from_coeffs(coeffs, x, quad_tol) for x in (lam - delta, lam, lam + delta)
    )
    slope = below - above
    gap = abs(at) * 2.0 * delta / slope if slope > 0.0 else math.inf
    return CheckResult("lambda_consistency", below > 0.0 > above, gap)


def certify_bound(
    n: int,
    quad_tol: float = DEFAULT_QUAD_TOL,
    coefficients: Mapping[int, Fraction] | None = None,
) -> BoundCertificate:
    """Run the full pipeline for derivative order n in {1, 2} and return the
    certificate.

    The numeric re-verification runs at quad_tol, but its check thresholds
    derive from t = min(quad_tol, DEFAULT_QUAD_TOL), so a loose quad_tol
    cannot loosen them: the log-form residual must change sign between
    lambda - 1e4*t and lambda + 1e4*t (three quadratures,
    `_lambda_bracket`), the rational-form integral must sit within 1e2*t of
    pi, and the bisection root must agree with the closed form within 10*t.
    A quad_tol at which lambda +- 1e4*t rounds to lambda leaves no bracket,
    and one with 1e2*t no larger than the float spacing at pi leaves
    pi_integral passable only when the integral rounds to pi; both raise
    ValueError before any quadrature.  `coefficients` overrides
    the reference table (used by corruption tests); overrides are still
    held to the integrity cross-check.
    """
    if n not in THRESHOLDS:
        raise ValueError(f"certification supports n in {{1, 2}}, got {n}")
    check_tolerance("quad_tol", quad_tol)
    if coefficients is None:
        coefficients = moments.coefficient_column(n)
    integrity = _integrity_checks(n, coefficients)

    capB, (a, b, c, d), x_exact, derived = _exact_prelude(_column_key(coefficients))
    v_positive = all(t > 0 for t in derived.v_exact)
    checks = [
        integrity,
        CheckResult("v_positive", v_positive, float(min(derived.v_exact))),
        # g'(u)/u = sum_h 2h (2l-1) C(l,h) v_h u**(2h-2) with v_l = 1, so
        # exact v_h >= 0 proves g increasing on u > 0
        CheckResult("g_increasing", all(t >= 0 for t in derived.v_exact), 0.0),
    ]

    check_tol = min(quad_tol, DEFAULT_QUAD_TOL)
    if v_positive:
        v = tuple(float(t) for t in derived.v_exact)
        lam = float(derived.lam_exact)
        delta = 1e4 * check_tol
        if lam - delta == lam or lam + delta == lam:
            raise ValueError(f"quad_tol {quad_tol!r} is below the resolution of lambda {lam!r}")
        if 1e2 * check_tol <= math.ulp(math.pi):
            raise ValueError(f"quad_tol {quad_tol!r} is below the resolution of pi {math.pi!r}")
        pi_gap = rational_form_deviation(v, lam, quad_tol=quad_tol)
        x_gap = abs(solve_x(v, lam, capB, tol=quad_tol) - float(x_exact))
        checks += [
            _lambda_bracket(_weight_coeffs(v), lam, delta, quad_tol),
            CheckResult("pi_integral", abs(pi_gap) < 1e2 * check_tol, pi_gap),
            CheckResult("x_consistency", x_gap < 10 * check_tol, x_gap),
        ]
    else:  # the numeric re-verification assumes a monotone weight polynomial
        checks += [
            CheckResult(name, False, math.inf)
            for name in ("lambda_consistency", "pi_integral", "x_consistency")
        ]

    margin = x_exact - THRESHOLDS[n] ** 2  # exact rational comparison
    checks.append(CheckResult("bound_above_threshold", margin > 0, float(margin)))

    return BoundCertificate(
        n=n, a=a, b=b, c=c, d=d, x_exact=x_exact, v_exact=derived.v_exact,
        lam_exact=derived.lam_exact, checks=tuple(checks), quad_tol=quad_tol,
    )


def perturbed_x_values(
    n: int, rel: float = 0.01, quad_tol: float = DEFAULT_QUAD_TOL
) -> list[float]:
    """X recomputed after perturbing each derived v_h by +-rel, for rel
    in (0, 1).  Used to confirm the certified point is a local
    non-improvement: no perturbation should beat the certified X beyond
    tolerance.

    Each lambda is re-solved to quad_tol by `solve_lambda`, with no
    quadrature: the derived v_h are positive, so the perturbed ones are
    too.  The column's exact prelude is the one `certify_bound(n)` reads,
    derived once per process; the lambda and X solves run on every call,
    with B(h) converted to floats once for all six."""
    if n not in THRESHOLDS:
        raise ValueError(f"certification supports n in {{1, 2}}, got {n}")
    if not (math.isfinite(rel) and 0.0 < rel < 1.0):
        raise ValueError(f"rel must be finite and in (0, 1), got {rel!r}")
    check_tolerance("quad_tol", quad_tol)
    capB, _, _, derived = _exact_prelude(_column_key(moments.coefficient_column(n)))
    ratios = tuple(float(t) for t in capB)
    base_v = tuple(float(t) for t in derived.v_exact)
    out = []
    for h in range(len(base_v)):
        for direction in (1.0 - rel, 1.0 + rel):
            v = base_v[:h] + (base_v[h] * direction,) + base_v[h + 1:]
            lam = solve_lambda(v, quad_tol=quad_tol)
            out.append(solve_x(v, lam, ratios, tol=quad_tol))
    return out
