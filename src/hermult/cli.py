"""Command-line front end emitting reproducible tables and reports.

Subcommands: norms, criterion, trace, semigroup, kernel.  Output is
JSON (schema 1) or CSV with a header row, written to stdout or a file.
Exit codes: 0 success, 2 configuration or domain error, 3 unsupported
regime or refused check, 4 convergence or certification failure.
Identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    HermultError,
    InconclusiveError,
    TraceCheckRefused,
    UnsupportedRegimeError,
)
from .nuclearity import classify_regime, gl_condition, kappa_sum
from .quadrature import norm_estimate
from .spectral_ops import (
    Symbol,
    heat_symbol,
    kernel_series,
    mehler_kernel,
    power_symbol,
    table_symbol,
)
from .trace_lab import semigroup_trace_closed_form, trace_report

_DEFAULT_DEGREES = (5, 10, 20, 50, 100, 200)
_DEFAULT_PS = "1,2,4,6,inf"


class _UsageError(Exception):
    """Raised in place of argparse's SystemExit so errors serialize."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-2,0,2" as a value, not an option: argparse's own pattern
        # only admits single negative numbers.  No option starts with a digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise _UsageError(message)


def _exponent(text: str):
    token = text.strip()
    if token in ("inf", "infinity"):
        return math.inf
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exponent: {text!r}")


def _exponent_list(text: str):
    return tuple(_exponent(tok) for tok in text.split(","))


def _float_list(text: str):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return value


def _int_list(text: str):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _read_table_csv(path: str, n: int) -> dict:
    """Read rows of nu_1..nu_n,value; a non-numeric first row is a header."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read table file {path!r}: {exc}")
    mapping = {}
    rows = list(csv.reader(io.StringIO(text)))
    for i, row in enumerate(rows):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != n + 1:
            raise DomainError(
                f"table row {i + 1} has {len(row)} fields, expected {n + 1}"
            )
        try:
            key = tuple(int(tok) for tok in row[:-1])
            value = float(row[-1])
        except ValueError:
            if i == 0:
                continue
            raise DomainError(f"table row {i + 1} is not numeric: {row!r}")
        mapping[key] = value
    if not mapping:
        raise DomainError(f"table file {path!r} contains no entries")
    return mapping


def _parse_symbol(text: str, n: int):
    """Resolve heat:<t>, power:<a>, or table:<path> to a Symbol.

    Returns (symbol, kind, parameter); parameter is None for tables.
    """
    kind, sep, arg = text.partition(":")
    if not sep:
        raise DomainError(
            f"symbol {text!r} is missing a parameter; "
            "expected heat:<t>, power:<a>, or table:<path>"
        )
    if kind == "heat":
        t = _symbol_param(arg, text)
        return heat_symbol(t, n=n), kind, t
    if kind == "power":
        a = _symbol_param(arg, text)
        return power_symbol(a, n=n), kind, a
    if kind == "table":
        return table_symbol(_read_table_csv(arg, n), n=n), kind, None
    raise DomainError(
        f"unknown symbol kind {kind!r}; expected heat:<t>, power:<a>, or table:<path>"
    )


def _symbol_param(arg: str, text: str) -> float:
    try:
        return float(arg)
    except ValueError:
        raise DomainError(f"symbol {text!r} has a non-numeric parameter")


def _resolve_r(args) -> Fraction:
    if getattr(args, "gl_order", None) is not None:
        return gl_condition(args.gl_order)
    if getattr(args, "r", None) is not None:
        if math.isinf(args.r):
            raise DomainError("r must be finite")
        return args.r
    return Fraction(1)


def _resolve_order(args, n: int) -> int:
    return args.N if args.N is not None else 200 * n


def _p_str(p) -> str:
    return "inf" if p == math.inf else format(float(p), "g")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    return str(value)


def _emit(args, obj, rows) -> str:
    """JSON of obj, or CSV of rows (dicts): a header of their keys, then their values."""
    if args.format == "json":
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_cell(v) for v in row.values()])
    return sink.getvalue()


def _run_norms(args) -> str:
    rows = []
    for nu in args.degrees:
        for p in args.p:
            est = norm_estimate(nu, p, k=args.k, tol=args.tol)
            rows.append({"nu": nu, "p": _p_str(p), "computed": est.computed,
                         "model": est.predicted, "ratio": est.computed / est.predicted})
    obj = {
        "schema": 1,
        "subcommand": "norms",
        "k": args.k,
        "tolerance": args.tol,
        "rows": rows,
    }
    return _emit(args, obj, rows)


_CRITERION_COLUMNS = (
    "criterion", "symbol", "p1", "p2", "r", "k", "p2_regime", "p1_branch",
    "alpha", "log_power", "partial_sum", "tail_bound", "tail_kind",
    "truncation_order", "verdict", "tolerance",
)


def _run_criterion(args) -> str:
    m, _, _ = _parse_symbol(args.symbol, args.n)
    case = classify_regime(args.p1, args.p2, _resolve_r(args), k=args.k)
    report = kappa_sum(m, case, N=_resolve_order(args, args.n), tol=args.tol)
    obj = report.to_json_obj()
    return _emit(args, obj, [{c: obj[c] for c in _CRITERION_COLUMNS}])


_TRACE_COLUMNS = (
    "symbol", "dimension", "truncation_order", "symbol_sum", "symbol_tail",
    "diagonal_quadrature", "quadrature_tol", "closed_form",
    "symbol_vs_quadrature", "symbol_vs_closed", "quadrature_vs_closed",
)


def _run_trace(args) -> str:
    m, kind, param = _parse_symbol(args.symbol, args.n)
    closed = semigroup_trace_closed_form(param, args.n) if kind == "heat" else None
    report = trace_report(
        m, n=args.n, N=_resolve_order(args, args.n), tol=args.tol, closed_form=closed
    )
    obj = report.to_json_obj()
    flat = {**obj, **obj["discrepancies"]}
    return _emit(args, obj, [{c: flat.get(c) for c in _TRACE_COLUMNS}])


def _run_semigroup(args) -> str:
    order = _resolve_order(args, args.n)
    rows = []
    for t in args.t:
        m = heat_symbol(t, n=args.n)
        closed = semigroup_trace_closed_form(t, args.n)
        report = trace_report(m, n=args.n, N=order, tol=args.tol, closed_form=closed)
        rows.append({"t": t, "symbol_sum": report.symbol_sum,
                     "diagonal_quadrature": report.diagonal_quadrature, "closed_form": closed,
                     "max_abs_discrepancy": max(report.discrepancies.values())})
    obj = {
        "schema": 1,
        "subcommand": "semigroup",
        "dimension": args.n,
        "truncation_order": order,
        "rows": rows,
    }
    return _emit(args, obj, rows)


def _run_kernel(args) -> str:
    order = _resolve_order(args, args.n)
    m = heat_symbol(args.t, n=args.n)
    rows = []
    for xs in args.grid:
        for ys in args.grid:
            x = (xs,) * args.n
            y = (ys,) * args.n
            series = kernel_series(m, x, y, order)
            closed = mehler_kernel(args.t, x, y)
            rows.append({"x": list(x), "y": list(y), "series": series.value,
                         "closed_form": closed, "abs_error": abs(series.value - closed),
                         "tail_bound": series.tail_bound})
    obj = {
        "schema": 1,
        "subcommand": "kernel",
        "dimension": args.n,
        "t": args.t,
        "truncation_order": order,
        "rows": rows,
    }
    return _emit(args, obj, rows)


def _add_common(sub, n_flag=True):
    if n_flag:
        sub.add_argument("--n", type=int, default=1, help="dimension (default 1)")
    sub.add_argument("--N", type=int, default=None,
                     help="truncation order (default 200 per dimension)")
    sub.add_argument("--tol", type=_tolerance, default=1e-8,
                     help="tolerance, finite and positive (default 1e-8)")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format (default json)")
    sub.add_argument("--output", default=None,
                     help="output file path (default stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="hermult",
                     description="Hermite multiplier norm, criterion, and trace reports")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    norms = subs.add_parser("norms", help="quadrature norms next to their model")
    norms.add_argument("--degrees", type=_int_list, default=_DEFAULT_DEGREES,
                       help="comma-separated degrees (default 5,10,20,50,100,200)")
    norms.add_argument("--p", type=_exponent_list, default=_exponent_list(_DEFAULT_PS),
                       help="comma-separated exponents, inf allowed (default 1,2,4,6,inf)")
    norms.add_argument("--k", type=int, default=10, help="model cutoff (default 10)")
    _add_common(norms, n_flag=False)
    norms.set_defaults(run=_run_norms, n=1)

    criterion = subs.add_parser("criterion", help="summability criterion report")
    criterion.add_argument("--p1", type=_exponent, default=Fraction(2),
                           help="first exponent (default 2)")
    criterion.add_argument("--p2", type=_exponent, default=Fraction(2),
                           help="second exponent, inf allowed (default 2)")
    group = criterion.add_mutually_exclusive_group()
    group.add_argument("--r", type=_exponent, default=None,
                       help="summability order in (0, 1] (default 1)")
    group.add_argument("--gl-order", type=_exponent, default=None, dest="gl_order",
                       help="resolve r from this Lebesgue exponent")
    criterion.add_argument("--symbol", default="heat:1",
                           help="heat:<t>, power:<a>, or table:<path> (default heat:1)")
    criterion.add_argument("--k", type=int, default=10,
                           help="partition cutoff (default 10)")
    _add_common(criterion)
    criterion.set_defaults(run=_run_criterion)

    trace = subs.add_parser("trace", help="multi-route trace comparison")
    trace.add_argument("--symbol", default="heat:1",
                       help="heat:<t>, power:<a>, or table:<path> (default heat:1)")
    _add_common(trace)
    trace.set_defaults(run=_run_trace)

    semigroup = subs.add_parser("semigroup",
                                help="three-route semigroup trace table over a t grid")
    semigroup.add_argument("--t", type=_float_list, default=(0.5, 1.0, 2.0),
                           help="comma-separated times (default 0.5,1,2)")
    _add_common(semigroup)
    semigroup.set_defaults(run=_run_semigroup)

    kernel = subs.add_parser("kernel", help="series kernel vs closed form on a grid")
    kernel.add_argument("--t", type=float, default=1.0, help="time (default 1)")
    kernel.add_argument("--grid", type=_float_list, default=(-2.0, 0.0, 2.0),
                        help="comma-separated coordinates (default -2,0,2)")
    _add_common(kernel)
    kernel.set_defaults(run=_run_kernel)
    return parser


def _write_output(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)


def _error_object(exc, kind: str) -> str:
    error = {"type": kind, "message": str(exc)}
    hypothesis = getattr(exc, "hypothesis", "")
    if hypothesis:
        error["hypothesis"] = hypothesis
    verdict = getattr(exc, "verdict", "")
    if verdict:
        error["verdict"] = verdict
    return json.dumps({"schema": 1, "error": error}, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.run(args)
        _write_output(args, text)
        return 0
    except _UsageError as exc:
        sys.stderr.write(_error_object(exc, "ConfigError"))
        return 2
    except (UnsupportedRegimeError, TraceCheckRefused) as exc:
        sys.stderr.write(_error_object(exc, type(exc).__name__))
        return 3
    except (ConvergenceError, InconclusiveError) as exc:
        sys.stderr.write(_error_object(exc, type(exc).__name__))
        return 4
    except (DomainError, CapabilityError, OSError) as exc:
        sys.stderr.write(_error_object(exc, type(exc).__name__))
        return 2
    except HermultError as exc:
        sys.stderr.write(_error_object(exc, type(exc).__name__))
        return 4


if __name__ == "__main__":
    sys.exit(main())
