"""zgap: exact-arithmetic verification toolkit for joint-moment
coefficients of the characteristic-polynomial analogue of Hardy's
Z-function, Bessel-determinant series, restricted-permutation counts, and
certified zero-gap lower bounds.

The library API is the modules (`zgap.bounds`, `zgap.moments`,
`zgap.series`, `zgap.lis`, `zgap.arith`); the package itself exports only
`__version__`."""

__version__ = "0.1.0"
