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
column, and both `bounds --n 1` and `bounds --n 2` detect it.

`arithfactor` accepts --cutoff in [2, 10**8].  It exits 2 before the sieve
when its error bound would not be below its value (l**4 >= cutoff * ln 2:
l >= 17 at the default cutoff), and during it when the Euler product
underflows a float.  `identity` accepts l in 1..50.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from .arith import DEFAULT_PRIME_CUTOFF, DEFAULT_QUAD_TOL, DEFAULT_TERMS, check_tolerance

if TYPE_CHECKING:
    from fractions import Fraction

# What only some commands or formats use (`bounds`, `moments`, `lis`,
# `series`, `fractions`, `csv`, `tempfile`) is imported where it is used, so
# that a process loads no more than its command runs; `bounds` checks --tol
# with `check_tolerance` first, so a bad tolerance loads none of those
# modules.  `_json` writes the JSON format itself, so no command loads `json`.
# `argparse` is imported by `build_parser` alone (and by `_pair` to report a
# bad pair): `_parse` reads a well-formed command line from `_COMMANDS`, and
# only --help and usage errors, whose text argparse writes, build the parser.
#
# The report functions return library values as they are, and `_render`
# writes every one through `_plain`, the one artifact format.  The module
# docstring is the top-level --help text, whose bytes are pinned.


# The option that lengthens the printed integers of a report; `bounds` and
# `arithfactor` print none that an option lengthens.
_SIZE_OPTION = {"moments": "--l", "lis": "--max-n", "hankel": "--terms", "identity": "--terms"}


def _unprintable(command: str) -> ValueError:
    """The refusal of a `command` report that holds an integer of more
    digits than str() writes, sys.get_int_max_str_digits()."""
    return ValueError(
        f"the {command} report holds an integer of more than "
        f"{sys.get_int_max_str_digits()} digits, which Python will not print; "
        f"lower {_SIZE_OPTION[command]}"
    )


def _check_printable(command: str, factors) -> None:
    """Refuse, before the work, a `command` report that prints the product
    of `factors` when that product has more digits than str() writes,
    sys.get_int_max_str_digits() (0: no limit).  The product is built only
    up to 10**digits."""
    digits = sys.get_int_max_str_digits()
    product, bound = 1, 10**digits
    for factor in factors if digits else ():
        product *= factor
        if product >= bound:
            raise _unprintable(command)


def _corrupted(column: dict[int, Fraction]) -> dict[int, Fraction]:
    """The `bounds --corrupt` test hook: `column` with the numerator of its
    h = 2 entry raised by one."""
    from fractions import Fraction

    bad = column[2]
    return {**column, 2: Fraction(bad.numerator + 1, bad.denominator)}


def _bounds_report(args: SimpleNamespace):
    check_tolerance("quad_tol", args.tol)
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
        "notes": [],  # no check writes a note; the key keeps the report's layout
    }
    body = [*cert.checks, ["bound", cert.valid, cert.bound]]
    return payload, ["check", "passed", "residual"], body, cert.valid


def _moments_report(args: SimpleNamespace):
    """The partition sums of the (2, 1) pair, with the reference column
    alongside when l = 4, or the (3, 2) column (l = 4 only) beside its
    reference; each h with a reference entry gets a match flag."""
    from . import moments

    l, (n1, n2) = args.l, args.pair
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if args.pair == (2, 1):
        computed = [moments.joint_moment_coefficient(h, l) for h in range(l + 1)]
        reference = moments.coefficient_column(1) if l == 4 else {}
    elif args.pair == (3, 2):
        if l != 4:
            raise ValueError("the (3, 2) pair is tabulated for l = 4 only")
        computed, reference = moments._column((3, 2), l), moments.coefficient_column(2)
    else:
        raise ValueError(f"unsupported derivative pair {args.pair}")

    entries = []
    for h, value in enumerate(computed):
        entry: dict = {"h": h, "l": l, "n1": n1, "n2": n2, "partition_sum": value}
        if h in reference:
            entry["reference"] = reference[h]
            entry["match"] = value == reference[h]
        entries.append(entry)
    ok = all(e.get("match", True) for e in entries)
    header = ["h", "partition_sum", "reference", "match"]
    body = [
        [e["h"], e["partition_sum"], e.get("reference", ""), e.get("match", "")]
        for e in entries
    ]
    return {"records": entries, "all_match": ok}, header, body, ok


def _lis_report(args: SimpleNamespace):
    from . import lis

    # T_l(n) = n! for n <= l, a count the table prints
    _check_printable("lis", range(2, min(args.l, args.max_n) + 1))
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


def _hankel_report(args: SimpleNamespace):
    from . import series

    if args.l == 1:  # coefficient n is 1/(n! (n+1)!), so the last has the longest denominator
        _check_printable("hankel", (n * (n + 1) for n in range(1, args.terms)))
    det = series.hankel_determinant(args.l, args.terms)
    payload = {"l": args.l, "terms": args.terms,
               "offset": det.offset, "coefficients": det.coeffs}
    body = [[det.offset + k, c] for k, c in enumerate(det.coeffs)]
    return payload, ["exponent", "coefficient"], body, True


def _identity_report(args: SimpleNamespace):
    from . import series

    report = series.check_hankel_identity(args.l, args.terms)
    payload = {k: v for k, v in report._asdict().items() if v is not None}
    return payload, ["field", "value"], sorted(payload.items()), report.matched


def _arithfactor_report(args: SimpleNamespace):
    from . import moments

    payload = moments.arithmetic_factor(args.l, args.cutoff)._asdict()
    return payload, ["field", "value"], sorted(payload.items()), True


def _plain(value):
    """The one artifact form of a report value: a rational as its
    "numerator/denominator" string in lowest terms, a float as its shortest
    round-trip repr, a tuple or list as a list and a dict as a dict of plain
    values, and an int, bool or str as it is."""
    from fractions import Fraction  # once per report, not once per value

    def plain(value):
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    return plain(value)


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for what `_plain`
    returns: dicts with str keys, lists, str, int, bool and None, nested,
    with `indent` the line break and indentation of the enclosing level.  A
    str of printable ASCII without '"' or '\\' needs no escape; any other
    goes through json.dumps, the one use of `json`.  Any other value or key
    raises TypeError, and str() of an int past
    sys.get_int_max_str_digits() the ValueError that json raises too."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        import json

        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("keys must be str")
        items = [f"{_json(key)}: {_json(v, inner)}" for key, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(fmt: str, payload: dict, header: list, body: list) -> str:
    """The report as JSON (`payload`), or as CSV or text rows (`header`,
    `body`), every value written by `_plain`."""
    if fmt == "json":
        return _json(_plain(payload)) + "\n"
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
        import argparse

        raise argparse.ArgumentTypeError(
            f"expected two comma-separated integers, got {text!r}"
        ) from None
    return n1, n2


def _usage_error(message: str) -> NoReturn:
    """Stands in for `ArgumentParser.error`: one line on stderr instead of
    the usage block, and exit 2."""
    sys.stderr.write(f"zgap: {message}\n")
    raise SystemExit(2)


_HIDDEN = "==SUPPRESS=="  # the help of an option that --help does not list
_TERMS_HELP = "series terms (default: %(default)s)"

# The grammar, declared once: each command's report function, its summary
# and its options, each option as the keyword arguments of `add_argument`,
# which `build_parser` hands to argparse and `_parse` reads itself.
_COMMANDS = {
    "bounds": (_bounds_report, "certify a zero-gap lower bound", {
        "--n": {"type": int, "choices": (1, 2), "default": 1},
        "--tol": {"type": float, "default": DEFAULT_QUAD_TOL,
                  "help": "quadrature tolerance (default: %(default)s)"},
        "--corrupt": {"action": "store_true", "default": False, "help": _HIDDEN},
    }),
    "moments": (_moments_report, "joint-moment coefficients and match flags", {
        "--l": {"type": int, "default": 4},
        "--pair": {"type": _pair, "default": (2, 1), "help": "derivative orders, e.g. 2,1"},
    }),
    "lis": (_lis_report, "restricted permutation counts", {
        "--l": {"type": int, "default": 3},
        "--max-n": {"type": int, "default": 9, "dest": "max_n"},
    }),
    "hankel": (_hankel_report, "Hankel determinant series", {
        "--l": {"type": int, "default": 4},
        "--terms": {"type": int, "default": DEFAULT_TERMS, "help": _TERMS_HELP},
    }),
    "identity": (_identity_report, "unitary-average identity check", {
        "--l": {"type": int, "default": 3},
        "--terms": {"type": int, "default": 8, "help": _TERMS_HELP},
    }),
    "arithfactor": (_arithfactor_report, "Euler-product factor estimate", {
        "--l": {"type": int, "default": 2},
        "--cutoff": {"type": int, "default": DEFAULT_PRIME_CUTOFF,
                     "help": "largest prime in the product (default: %(default)s)"},
    }),
}
# every command's output options, after its own
_OUTPUT = {
    "--format": {"choices": ("json", "csv", "text"), "default": "json"},
    "--output": {"default": None, "help": "write to file instead of stdout"},
}


def build_parser():
    """The argparse parser of `_COMMANDS`: the source of the --help texts and
    of every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="zgap", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.error = _usage_error
    for name, (report, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(report=report)
        for option, kwargs in {**options, **_OUTPUT}.items():
            if kwargs.get("help") == _HIDDEN:  # argparse knows SUPPRESS by identity
                kwargs = {**kwargs, "help": argparse.SUPPRESS}
            p.add_argument(option, **kwargs)
        p.error = _usage_error
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed command line, as `build_parser` parses
    it: a command, then options each written in full, `--corrupt` alone and
    every other one followed by a value that does not start with "-" and
    that its type and choices accept; an option not given takes its default.
    None for anything else (help, an abbreviation, `--name=value`, a negative
    value, an unknown or missing argument, a value its type refuses), which
    argparse then reads, so its help and its messages are the only ones."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    report, _, own = _COMMANDS[argv[0]]
    options = {**own, **_OUTPUT}
    given = {}
    words = iter(argv[1:])
    for word in words:
        spec = options.get(word)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            given[word] = True
            continue
        text = next(words, "-")  # a missing value reads as an option
        if text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:  # whatever a type raises, argparse reports it
            return None
        if value not in spec.get("choices", (value,)):
            return None
        given[word] = value
    args = SimpleNamespace(command=argv[0], report=report)
    for option, spec in options.items():
        setattr(args, spec.get("dest", option[2:]), given.get(option, spec["default"]))
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Its report function maps the parsed arguments to
    (payload, header, body, ok): the JSON payload, the CSV/text rows, and
    whether every check in the report passed."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:  # argparse's Namespace has the same attributes
        args = build_parser().parse_args(argv)
    try:
        if args.output is not None:
            _check_output(args.output)
        payload, header, body, ok = args.report(args)
        try:
            text = _render(args.format, payload, header, body)
        except ValueError:  # only str() of an int past sys.get_int_max_str_digits()
            raise _unprintable(args.command) from None
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
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
