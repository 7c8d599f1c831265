"""Command-line front end: reproducible runs of the library with
deterministic JSON/CSV/text artifacts.

Commands
--------
bounds      emit the certificate for derivative order n (exit 0 iff valid)
moments     joint-moment coefficients with source tags and match flags
lis         restricted-permutation counts with three-way agreement flags
hankel      the Bessel Hankel-determinant series, exact coefficients
identity    the unitary-average vs Hankel-determinant comparison report
arithfactor truncated Euler-product estimate with error bound

Defaults: terms=12, tol=1e-8, cutoff=1e5.  The default tolerance can be
overridden with the ZGAP_TOL environment variable (a --tol flag wins).
Identical configurations produce byte-identical outputs; the exit status is
0 iff every check in the emitted report passed, and 2, with a one-line
"zgap: ..." message on stderr, for invalid input, an unwritable --output
path (checked before any work) or a quadrature that does not converge.
Rationals serialize as "numerator/denominator" strings in lowest terms,
reals as shortest round-trip decimals.  The --corrupt flag of `moments`
and `bounds` is a test hook that perturbs one embedded reference constant
to demonstrate failure detection.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import bounds, lis, moments, series
from .arith import rational_str

DEFAULT_TOL = 1e-8
DEFAULT_CUTOFF = 100_000


@dataclass
class RunConfig:
    command: str
    format: str = "json"
    output: str | None = None
    n: int = 1
    l: int = 4
    pair: tuple[int, int] = (2, 1)
    max_n: int = 9
    terms: int = series.DEFAULT_TERMS
    tol: float = DEFAULT_TOL
    cutoff: int = DEFAULT_CUTOFF
    corrupt: bool = False


def _corrupted(column: dict[int, Fraction]) -> dict[int, Fraction]:
    """The --corrupt test hook: `column` with the numerator of its h = 2
    entry raised by one."""
    bad = column[2]
    return {**column, 2: Fraction(bad.numerator + 1, bad.denominator)}


def _emit(payload: dict, rows: tuple[list[str], list[list]], config: RunConfig) -> None:
    """Write the report in the requested format.  `rows` is (header, body)
    for the CSV rendering; text rendering is derived from it."""
    if config.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif config.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(rows[1])
        text = buffer.getvalue()
    else:
        header, body = rows
        lines = ["  ".join(str(x) for x in header)]
        lines += ["  ".join(str(x) for x in row) for row in body]
        text = "\n".join(lines) + "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_bounds(config: RunConfig) -> int:
    coefficients = _corrupted(moments.coefficient_column(config.n)) if config.corrupt else None
    certificate = bounds.certify_bound(config.n, quad_tol=config.tol, coefficients=coefficients)
    payload = certificate.to_json_dict()
    header = ["check", "passed", "residual"]
    body = [[c.name, c.passed, repr(c.residual)] for c in certificate.checks]
    body.append(["bound", certificate.valid, repr(certificate.bound)])
    _emit(payload, (header, body), config)
    return 0 if certificate.valid else 1


def _run_moments(config: RunConfig) -> int:
    records = moments.moment_records(config.l, config.pair)
    computed = {r.h: r.value for r in records if r.source == moments.SOURCE_PARTITION_SUM}
    reference = {r.h: r.value for r in records if r.source == moments.SOURCE_REFERENCE_TABLE}
    if config.corrupt and reference:
        reference = _corrupted(reference)

    entries = []
    ok = True
    for h in sorted({r.h for r in records}):
        entry: dict = {"h": h, "l": config.l, "n1": config.pair[0], "n2": config.pair[1]}
        if h in computed:
            entry["partition_sum"] = rational_str(computed[h])
        if h in reference:
            entry["reference"] = rational_str(reference[h])
        if h in computed and h in reference:
            entry["match"] = computed[h] == reference[h]
            ok = ok and entry["match"]
        entries.append(entry)
    payload = {"records": entries, "all_match": ok}
    header = ["h", "partition_sum", "reference", "match"]
    body = [
        [e["h"], e.get("partition_sum", ""), e.get("reference", ""), e.get("match", "")]
        for e in entries
    ]
    _emit(payload, (header, body), config)
    return 0 if ok else 1


def _run_lis(config: RunConfig) -> int:
    if config.max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {config.max_n}")
    entries = []
    ok = True
    for n in range(config.max_n + 1):
        count = lis.count_by_tableaux(config.l, n)
        by_series = lis.count_by_series(config.l, n)
        entry = {"l": config.l, "n": n, "count": count, "series": by_series}
        agree = count == by_series
        if n <= lis.ENUMERATION_LIMIT:
            by_enum = lis.count_by_enumeration(config.l, n)
            entry["enumeration"] = by_enum
            agree = agree and count == by_enum
        entry["agree"] = agree
        ok = ok and agree
        entries.append(entry)
    payload = {"table": entries, "all_agree": ok}
    header = ["l", "n", "count", "enumeration", "series", "agree"]
    body = [
        [e["l"], e["n"], e["count"], e.get("enumeration", ""), e["series"], e["agree"]]
        for e in entries
    ]
    _emit(payload, (header, body), config)
    return 0 if ok else 1


def _run_hankel(config: RunConfig) -> int:
    det = series.hankel_determinant(config.l, config.terms)
    payload = {"l": config.l, "terms": config.terms, **det.to_json_dict()}
    header = ["exponent", "coefficient"]
    body = [
        [rational_str(det.offset + k), rational_str(c)]
        for k, c in enumerate(det.coeffs)
    ]
    _emit(payload, (header, body), config)
    return 0


def _run_identity(config: RunConfig) -> int:
    report = series.check_hankel_identity(config.l, config.terms)
    payload = report.to_json_dict()
    header = ["field", "value"]
    body = [[k, v] for k, v in sorted(payload.items())]
    _emit(payload, (header, body), config)
    return 0 if report.matched else 1


def _run_arithfactor(config: RunConfig) -> int:
    estimate = moments.arithmetic_factor(config.l, config.cutoff)
    payload = estimate.to_json_dict()
    header = ["field", "value"]
    body = [[k, v] for k, v in sorted(payload.items())]
    _emit(payload, (header, body), config)
    return 0


_RUNNERS = {
    "bounds": _run_bounds,
    "moments": _run_moments,
    "lis": _run_lis,
    "hankel": _run_hankel,
    "identity": _run_identity,
    "arithfactor": _run_arithfactor,
}


def _check_output(path: str) -> None:
    """Fail before any work, and without touching `path`, when the report
    could not be written there.  An existing file must be writable; for a
    new one, a scratch file is created in its directory, which tests
    writability where permission bits alone do not (as for root on a
    read-only mount)."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            raise ValueError(f"cannot write {path}: permission denied")
        return
    import tempfile  # only runs with --output; keeps `import zgap.cli` lean

    try:
        with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))):
            pass
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def run(config: RunConfig) -> int:
    if config.command not in _RUNNERS:
        raise ValueError(f"unknown command {config.command!r}")
    if config.output:
        _check_output(config.output)
    return _RUNNERS[config.command](config)


def _default_tol() -> float:
    env = os.environ.get("ZGAP_TOL")
    return float(env) if env else DEFAULT_TOL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zgap", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("bounds", help="certify a zero-gap lower bound")
    p.add_argument("--n", type=int, choices=(1, 2), default=1)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    common(p)

    p = sub.add_parser("moments", help="joint-moment coefficients and match flags")
    p.add_argument("--l", type=int, default=4)
    p.add_argument("--pair", default="2,1", help="derivative orders, e.g. 2,1")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    common(p)

    p = sub.add_parser("lis", help="restricted permutation counts")
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--max-n", type=int, default=9, dest="max_n")
    common(p)

    p = sub.add_parser("hankel", help="Hankel determinant series")
    p.add_argument("--l", type=int, default=4)
    p.add_argument("--terms", type=int, default=series.DEFAULT_TERMS)
    common(p)

    p = sub.add_parser("identity", help="unitary-average identity check")
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--terms", type=int, default=8)
    common(p)

    p = sub.add_parser("arithfactor", help="Euler-product factor estimate")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    common(p)

    return parser


def parse_config(argv: list[str] | None = None) -> RunConfig:
    args = build_parser().parse_args(argv)
    config = RunConfig(command=args.command, format=args.format, output=args.output)
    if args.command == "bounds":
        config.n = args.n
        config.tol = args.tol if args.tol is not None else _default_tol()
        config.corrupt = args.corrupt
    elif args.command == "moments":
        config.l = args.l
        n1, n2 = (int(t) for t in args.pair.split(","))
        config.pair = (n1, n2)
        config.corrupt = args.corrupt
    elif args.command == "lis":
        config.l = args.l
        config.max_n = args.max_n
    elif args.command in ("hankel", "identity"):
        config.l = args.l
        config.terms = args.terms
    elif args.command == "arithfactor":
        config.l = args.l
        config.cutoff = args.cutoff
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        return run(parse_config(argv))
    except (ValueError, KeyError, bounds.QuadratureError, OSError) as exc:
        print(f"zgap: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
