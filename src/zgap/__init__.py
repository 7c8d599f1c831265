"""zgap: exact-arithmetic verification toolkit for joint-moment
coefficients of the characteristic-polynomial analogue of Hardy's
Z-function, Bessel-determinant series, restricted-permutation counts, and
certified zero-gap lower bounds."""

from .arith import FactoredConstant, Rational, factorial, multinomial
from .bounds import (
    BoundCertificate,
    CheckResult,
    QuadratureError,
    WirtingerParams,
    certify_bound,
    closed_form_x,
    derive_params,
    lambda_equation_residual,
    rational_form_deviation,
    solve_lambda,
    solve_x,
)
from .lis import (
    Partition,
    count_by_enumeration,
    count_by_series,
    count_by_tableaux,
    standard_tableaux,
)
from .moments import (
    ArithmeticFactorEstimate,
    RatioSet,
    arithmetic_factor,
    cue_moment_coefficient,
    hall_ratio,
    joint_moment_coefficient,
    moment_exponent,
    moment_ratio,
    tabulated_coefficient,
)
from .series import (
    HalfPowerSeries,
    IdentityReport,
    SeriesMatrix,
    check_hankel_identity,
    hankel_determinant,
    toeplitz_determinant,
    unitary_average,
)

__version__ = "0.1.0"
