"""Command-line front end: reproducible runs of the library with
deterministic JSON/CSV/text artifacts.

Commands
--------
bounds      emit the certificate for derivative order n (exit 0 iff valid)
moments     joint-moment coefficients, reference values and match flags
lis         restricted-permutation counts with three-way agreement flags
hankel      the Bessel Hankel-determinant series, exact coefficients
identity    the unitary-average vs Hankel-determinant comparison report
arithfactor Euler-product estimate with error bound

Identical configurations produce byte-identical outputs; the exit status
is 0 iff every check in the emitted report passed, and 2, with a one-line
"zgap: ..." message on stderr, for invalid input, an unwritable --output
path (checked before any work), a quadrature that does not converge or a
computation that runs out of memory.  Rationals serialize as
"numerator/denominator" strings in lowest terms, reals as shortest
round-trip decimals.

The hidden --corrupt flag of `bounds` is a test hook, kept because the
benchmark's tests run it: it raises the h = 2 entry of the reference
column.  `bounds --n 1` detects it; `bounds --n 2` does not, because its
(3,2) column is verified only at its h = 0 anchor.

`arithfactor` accepts --cutoff in [2, 10**8].  It exits 2 before the sieve
when its error bound would not be below its value (l**4 >= cutoff * ln 2:
l >= 17 at the default cutoff), and during it when the Euler product
underflows a float.  `identity` accepts l in 1..8.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import NoReturn

from . import lis, series
from .arith import DEFAULT_PRIME_CUTOFF, DEFAULT_QUAD_TOL

# What only some commands or formats use (`bounds`, `moments`, `json`,
# `csv`, `tempfile`) is imported where it is used, so that a process loads
# no more than its command runs.
#
# The report functions return library values as they are, and `_render`
# writes every one through `_plain`, the one artifact format.  The module
# docstring is the top-level --help text, whose bytes are pinned.


def _corrupted(column: dict[int, Fraction]) -> dict[int, Fraction]:
    """The `bounds --corrupt` test hook: `column` with the numerator of its
    h = 2 entry raised by one."""
    bad = column[2]
    return {**column, 2: Fraction(bad.numerator + 1, bad.denominator)}


def _bounds_report(args: argparse.Namespace):
    from . import bounds, moments

    coefficients = _corrupted(moments.coefficient_column(args.n)) if args.corrupt else None
    cert = bounds.certify_bound(args.n, quad_tol=args.tol, coefficients=coefficients)
    payload = {
        "derivative_order": cert.n,
        "inputs": dict(zip("abcd", (cert.a, cert.b, cert.c, cert.d))),
        "x_exact": cert.x_exact,
        "x_value": float(cert.x_exact),
        "v": [float(t) for t in cert.v_exact],
        "v_exact": cert.v_exact,
        "lambda": float(cert.lam_exact),
        "lambda_exact": cert.lam_exact,
        "checks": [c._asdict() for c in cert.checks],
        "bound": cert.bound,
        "threshold": bounds.THRESHOLDS[cert.n],
        "quad_tol": cert.quad_tol,
        "valid": cert.valid,
        "notes": cert.notes,
    }
    body = [*cert.checks, ["bound", cert.valid, cert.bound]]
    return payload, ["check", "passed", "residual"], body, cert.valid


def _moments_report(args: argparse.Namespace):
    """For the (2, 1) pair the partition sums, with the reference column
    alongside when l = 4; for the (3, 2) pair (l = 4 only) the reference
    column alone."""
    from . import moments

    l, (n1, n2) = args.l, args.pair
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if args.pair == (2, 1):
        computed = {h: moments.joint_moment_coefficient(h, l) for h in range(l + 1)}
        reference = moments.coefficient_column(1) if l == 4 else {}
    elif args.pair == (3, 2):
        if l != 4:
            raise ValueError("the (3, 2) pair is tabulated for l = 4 only")
        computed, reference = {}, moments.coefficient_column(2)
    else:
        raise ValueError(f"unsupported derivative pair {args.pair}")

    entries = []
    ok = True
    for h in range(l + 1):
        entry: dict = {"h": h, "l": l, "n1": n1, "n2": n2}
        if h in computed:
            entry["partition_sum"] = computed[h]
        if h in reference:
            entry["reference"] = reference[h]
        if h in computed and h in reference:
            entry["match"] = computed[h] == reference[h]
            ok = ok and entry["match"]
        entries.append(entry)
    header = ["h", "partition_sum", "reference", "match"]
    body = [
        [e["h"], e.get("partition_sum", ""), e.get("reference", ""), e.get("match", "")]
        for e in entries
    ]
    return {"records": entries, "all_match": ok}, header, body, ok


def _lis_report(args: argparse.Namespace):
    counts = lis.count_by_tableaux(args.l, args.max_n)
    by_series = lis.count_by_series(args.l, args.max_n)
    by_enum = lis.count_by_enumeration(args.l, min(args.max_n, lis.ENUMERATION_LIMIT))
    entries = []
    for n, (count, series_count) in enumerate(zip(counts, by_series)):
        entry = {"l": args.l, "n": n, "count": count, "series": series_count}
        if n < len(by_enum):
            entry["enumeration"] = by_enum[n]
        entry["agree"] = count == series_count == entry.get("enumeration", count)
        entries.append(entry)
    ok = all(e["agree"] for e in entries)
    header = ["l", "n", "count", "enumeration", "series", "agree"]
    body = [[e.get(key, "") for key in header] for e in entries]
    return {"table": entries, "all_agree": ok}, header, body, ok


def _hankel_report(args: argparse.Namespace):
    det = series.hankel_determinant(args.l, args.terms)
    payload = {"l": args.l, "terms": args.terms,
               "offset": det.offset, "coefficients": det.coeffs}
    body = [[det.offset + k, c] for k, c in enumerate(det.coeffs)]
    return payload, ["exponent", "coefficient"], body, True


def _identity_report(args: argparse.Namespace):
    report = series.check_hankel_identity(args.l, args.terms)
    payload = {k: v for k, v in report._asdict().items() if v is not None}
    return payload, ["field", "value"], sorted(payload.items()), report.matched


def _arithfactor_report(args: argparse.Namespace):
    from . import moments

    payload = moments.arithmetic_factor(args.l, args.cutoff)._asdict()
    return payload, ["field", "value"], sorted(payload.items()), True


def _plain(value):
    """The one artifact form of a report value: a rational as its
    "numerator/denominator" string in lowest terms, a float as its shortest
    round-trip repr, a tuple or list as a list and a dict as a dict of plain
    values, and an int, bool or str as it is."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _render(fmt: str, payload: dict, header: list, body: list) -> str:
    """The report as JSON (`payload`), or as CSV or text rows (`header`,
    `body`), every value written by `_plain`."""
    if fmt == "json":
        import json

        return json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n"
    rows = _plain([header, *body])
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()
    return "".join("  ".join(str(x) for x in row) + "\n" for row in rows)


def _check_output(path: str) -> None:
    """Fail before any work, and without touching `path`, when the report
    could not be written there.  An existing file must be writable; for a
    new one, a scratch file is created in its directory, which tests
    writability where permission bits alone do not (as for root on a
    read-only mount)."""
    if not path:
        raise ValueError("cannot write '': the --output path is empty")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            raise ValueError(f"cannot write {path}: permission denied")
        return
    import tempfile

    try:
        with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))):
            pass
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _pair(text: str) -> tuple[int, int]:
    try:
        n1, n2 = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated integers, got {text!r}"
        ) from None
    return n1, n2


def _usage_error(message: str) -> NoReturn:
    """Stands in for `ArgumentParser.error`: one line on stderr instead of
    the usage block, and exit 2."""
    sys.stderr.write(f"zgap: {message}\n")
    raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zgap", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, report, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(report=report)
        return p

    p = command("bounds", _bounds_report, "certify a zero-gap lower bound")
    p.add_argument("--n", type=int, choices=(1, 2), default=1)
    p.add_argument("--tol", type=float, default=DEFAULT_QUAD_TOL,
                   help="quadrature tolerance (default: %(default)s)")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)

    p = command("moments", _moments_report, "joint-moment coefficients and match flags")
    p.add_argument("--l", type=int, default=4)
    p.add_argument("--pair", type=_pair, default="2,1", help="derivative orders, e.g. 2,1")

    p = command("lis", _lis_report, "restricted permutation counts")
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--max-n", type=int, default=9, dest="max_n")

    terms_help = "series terms (default: %(default)s)"
    p = command("hankel", _hankel_report, "Hankel determinant series")
    p.add_argument("--l", type=int, default=4)
    p.add_argument("--terms", type=int, default=series.DEFAULT_TERMS, help=terms_help)

    p = command("identity", _identity_report, "unitary-average identity check")
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--terms", type=int, default=8, help=terms_help)

    p = command("arithfactor", _arithfactor_report, "Euler-product factor estimate")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--cutoff", type=int, default=DEFAULT_PRIME_CUTOFF,
                   help="largest prime in the product (default: %(default)s)")

    parser.error = _usage_error
    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.error = _usage_error
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Its report function maps the parsed arguments to
    (payload, header, body, ok): the JSON payload, the CSV/text rows, and
    whether every check in the report passed."""
    args = build_parser().parse_args(argv)
    try:
        if args.output is not None:
            _check_output(args.output)
        payload, header, body, ok = args.report(args)
        text = _render(args.format, payload, header, body)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, KeyError, OSError) as exc:  # QuadratureError is a ValueError
        print(f"zgap: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"zgap: out of memory computing the {args.command} report", file=sys.stderr)
        return 2
    except RecursionError:  # the Laplace memo recurses once per row: `hankel --l 600`
        print(f"zgap: recursion limit reached computing the {args.command} report",
              file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
