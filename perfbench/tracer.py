"""Spans and counts around zgap's public functions, recorded from outside
the package by replacing module and class attributes with wrappers.

A span is ``[id, name, start, end, parent, attrs]`` with perf_counter
times; spans stay in memory and are written out once, at the end.  A name
that no longer exists in zgap is listed as absent instead of failing.

Run as a script it stands in for ``python -m zgap.cli`` with tracing on:

    python perfbench/tracer.py SPANS_OUT CLI_ARGS...

and writes ``{"spans", "counts", "absent"}`` as JSON to SPANS_OUT however
the command ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

JMC = "moments.joint_moment_coefficient"
QUADRATURE = "bounds.integrate_unit_interval"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._open: list[list] = []

    def _original(self, owner, attr: str, name: str):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
        return fn

    def _call(self, name: str, attrs: dict, fn, args, kwargs):
        parent = self._open[-1][0] if self._open else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, attrs]
        self.spans.append(span)
        self._open.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            span[3] = time.perf_counter()
            self._open.pop()

    def wrap_span(self, owner, attr: str, name: str) -> None:
        fn = self._original(owner, attr, name)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            return self._call(name, {}, fn, args, kwargs)

        setattr(owner, attr, wrapper)

    def wrap_cached(self, owner, attr: str, name: str) -> None:
        """Span per call, tagged with the call's h and l and whether the
        function's lru_cache answered it."""
        fn = self._original(owner, attr, name)
        if fn is None:
            return
        signature = inspect.signature(fn)
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            attrs = {"h": bound.get("h"), "l": bound.get("l")}
            hits = cache_info().hits if cache_info else None
            try:
                return self._call(name, attrs, fn, args, kwargs)
            finally:
                attrs["hit"] = cache_info is not None and cache_info().hits > hits

        setattr(owner, attr, wrapper)

    def wrap_count(self, owner, attr: str, key: str) -> bool:
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        return True

    def wrap_quadrature(self, owner, attr: str, name: str) -> None:
        """Span per call, and an exact count of evaluations of the
        integrand passed in."""
        self.wrap_span(owner, attr, name)
        traced = getattr(owner, attr, None)
        if traced is None:
            return
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            def counted(x):
                counts["bounds.integrand_evals"] += 1
                return f(x)

            return traced(counted, *args, **kwargs)

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of zgap's cli, bounds, moments, series and
    lis modules, and count the arith primitives where those modules bind
    them."""
    from zgap import bounds, cli, lis, moments, series

    tracer.wrap_span(cli, "main", "cli.main")
    for attr in ("certify_bound", "solve_lambda", "rational_form_deviation", "solve_x",
                 "perturbed_x_values"):
        tracer.wrap_span(bounds, attr, "bounds." + attr)
    tracer.wrap_quadrature(bounds, "integrate_unit_interval", QUADRATURE)
    tracer.wrap_cached(moments, "joint_moment_coefficient", JMC)
    tracer.wrap_span(moments, "arithmetic_factor", "moments.arithmetic_factor")
    for attr in ("hankel_determinant", "toeplitz_determinant", "unitary_average"):
        tracer.wrap_span(series, attr, "series." + attr)
    tracer.wrap_span(getattr(series, "SeriesMatrix", None), "determinant", "series.determinant")
    product = getattr(series, "HalfPowerSeries", None)
    if not any([tracer.wrap_count(product, attr, "series.mul.calls")
                for attr in ("__mul__", "__rmul__")]):
        tracer.absent.append("series.mul.calls")
    for attr in ("count_by_enumeration", "count_by_tableaux", "count_by_series"):
        tracer.wrap_span(lis, attr, "lis." + attr)
    for attr in ("multinomial", "factorial"):
        key = f"arith.{attr}.calls"
        if not any([tracer.wrap_count(module, attr, key) for module in (moments, lis, series)]):
            tracer.absent.append(key)


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from zgap import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
