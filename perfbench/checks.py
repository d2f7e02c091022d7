"""Correctness checks on the program's outputs.

Each check compares a result with a value computed outside hermult:
the mpmath table in references.json, or a closed form written here.
Where no reference is affordable (norms at high degree, verdicts,
drift) it checks a property the true value must have.  A check returns
a list of problems; an empty list means the result passed.

Tolerances:
- NORM_RTOL is the tolerance lp_norm_1d is called with (its default):
  the adaptive rule stops once two passes agree to it, and the p-th
  root only shrinks a relative error.
- A sum of terms carrying two norm factors may be off by 2 NORM_RTOL
  relative, on top of the tail the report itself bounds.
- ROUND covers double rounding in sums of a few hundred terms.
- Eigenvalues from a symmetric eigensolver are off by at most a small
  multiple of (size * machine epsilon * largest eigenvalue).
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from pathlib import Path

# written by references.py
REFERENCES = Path(__file__).with_name("references.json")

NORM_RTOL = 1e-8
SUM_RTOL = 2 * NORM_RTOL
ROUND = 1e-12
EPS = 2.0 ** -52
# Classical bound sup_x |phi_n(x)| <= 1.086435 pi^{-1/4}.
SUP_BOUND = 1.086435 * math.pi ** -0.25
DRIFT_MAX = 0.05
# Slack on the inequalities between norms of one function, which
# combine up to five computed norms.
HOLDER_SLACK = 1 + 10 * NORM_RTOL


@lru_cache(maxsize=1)
def refs() -> dict:
    return json.loads(REFERENCES.read_text())


# ---- closed forms ----------------------------------------------------------


def heat_trace(t: float, n: int) -> float:
    """sum over nu of e^{-t(2|nu|+n)} = (e^t - e^{-t})^{-n}, as a geometric series."""
    return (math.exp(-t) / -math.expm1(-2.0 * t)) ** n


def heat_eigenvalues(t: float, T: int) -> list:
    return [math.exp(-t * (2 * k + 1)) for k in range(T + 1)]


def mehler(t: float, x, y) -> float:
    """sum over nu of e^{-t(2|nu|+n)} phi_nu(x) phi_nu(y).

    Mehler's formula, per coordinate, in its rho = e^{-2t} form.
    """
    rho = math.exp(-2.0 * t)
    one = -math.expm1(-4.0 * t)  # 1 - rho^2
    out = 1.0
    for a, b in zip(x, y):
        q = ((1 + rho * rho) * (a * a + b * b) - 4.0 * rho * a * b) / (2.0 * one)
        out *= math.exp(-t - q) / math.sqrt(math.pi * one)
    return out


def table_trace(rows, N=None, power=lambda v: v) -> float:
    return math.fsum(power(row[-1]) for row in rows if N is None or sum(row[:-1]) <= N)


def eig_tol(T: int, scale: float) -> float:
    return 64 * (T + 1) * EPS * scale


def power_trace(n: int, a) -> float:
    return refs()["power_trace"][f"{n}:{int(a)}"]


def symbol_trace(spec, N=None) -> float:
    """Exact trace of a symbol spec ["heat"|"power"|"table", param, n]."""
    kind, param, n = spec
    if kind == "heat":
        return heat_trace(param, n)
    if kind == "power":
        return power_trace(n, param)
    return table_trace(param, N)


# ---- helpers ---------------------------------------------------------------


def _near(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, want {want!r} within {tol:.3g}")


def _finite_verdict(problems, what, report):
    if report["verdict"] != "finite":
        problems.append(f"{what}: verdict {report['verdict']!r}, want 'finite'")
    elif not report["tail_bound"] < report["tolerance"]:
        problems.append(f"{what}: finite verdict with tail {report['tail_bound']!r} "
                        f">= tolerance {report['tolerance']!r}")


def p_key(p) -> str:
    p = float(p)
    return "inf" if math.isinf(p) else format(p, "g")


def check_norm(degree: int, p, value: float) -> list:
    problems = []
    what = f"||phi_{degree}||_{p_key(p)}"
    key = p_key(p)
    table = refs()["norms"]
    if key in table and degree <= refs()["max_degree"]:
        ref = table[key][degree]
        _near(problems, what, value, ref, NORM_RTOL * ref)
    if key == "2":
        _near(problems, what, value, 1.0, NORM_RTOL)
    if key == "inf" and not value <= SUP_BOUND:
        problems.append(f"{what} = {value!r} exceeds the bound {SUP_BOUND!r}")
    return problems


def check_norm_relations(norms: dict) -> list:
    """Inequalities between the norms of one phi_n, keyed (degree, p-key) -> value.

    ||phi_n||_2 = 1 exactly stands in where the 2-norm was not computed.
    """
    problems = []
    for d in sorted({d for d, _ in norms}):
        v = {k: norms.get((d, k)) for k in ("1", "2", "4", "6", "inf")}
        l1, l2, l4, l6, sup = v["1"], v["2"] or 1.0, v["4"], v["6"], v["inf"]
        if None not in (l2, l4, sup) and not l4 ** 2 <= l2 * sup * HOLDER_SLACK:
            problems.append(f"degree {d}: ||phi||_4^2 > ||phi||_2 ||phi||_inf")
        if None not in (l4, l6, sup) and not l6 ** 6 <= sup ** 2 * l4 ** 4 * HOLDER_SLACK:
            problems.append(f"degree {d}: ||phi||_6^6 > ||phi||_inf^2 ||phi||_4^4")
        if None not in (l1, sup) and not l1 * sup * HOLDER_SLACK >= 1.0:
            problems.append(f"degree {d}: ||phi||_1 < 1 / ||phi||_inf")
    return problems


# ---- Python-API operations -------------------------------------------------


def _check_s_r(op, rep):
    problems = []
    _finite_verdict(problems, "s_r_sum", rep)
    if op["N"] is not None and rep["truncation_order"] != op["N"]:
        problems.append(f"s_r_sum: truncation order {rep['truncation_order']} != {op['N']}")
    kind, t, n = op["symbol"]
    if (op["p1"], op["p2"], op["r"]) == ("2", "2", "1"):
        ref = heat_trace(t, n)
        _near(problems, "s_r_sum(2, 2, 1) vs trace", rep["partial_sum"], ref,
              rep["tail_bound"] + SUM_RTOL * ref)
    if (op["p1"], op["p2"], op["r"], t, n) == ("1", "1", "2/3", 1.0, 1):
        ref = refs()["s_r_heat1_p1_1_p2_1_r_2_3"]
        _near(problems, "s_r_sum(heat:1, 1, 1, 2/3)", rep["partial_sum"], ref,
              rep["tail_bound"] + SUM_RTOL * ref)
    return problems


def _check_compare(op, rep):
    problems = []
    if rep["anomaly"] or not rep["drift"] < DRIFT_MAX:
        problems.append(f"compare_sr_kappa: drift {rep['drift']!r} (anomaly {rep['anomaly']})")
    if (op["p1"], op["p2"], op["r"]) == ("2", "2", "1"):
        # both weights are 1 here: kappa's by its law, s_r's as ||phi_u||_2^2
        _near(problems, "compare_sr_kappa(2, 2, 1) ratio", rep["ratio"], 1.0, SUM_RTOL)
    return problems


def _check_kappa(op, rep):
    problems = []
    _finite_verdict(problems, "kappa_sum", rep)
    if (op["p1"], op["p2"], op["r"]) == ("2", "2", "1"):
        kind, param, n = op["symbol"]
        # weight 1 and r = 1: the partial sum is the sum of |m|
        ref = heat_trace(param, n) if kind == "heat" else table_trace(param, power=abs)
        _near(problems, "kappa_sum(2, 2, 1)", rep["partial_sum"], ref,
              rep["tail_bound"] + ROUND * (1 + ref))
    return problems


def _check_trace_value(op, res):
    problems = []
    ref = symbol_trace(op["symbol"])
    what = f"trace_symbol_sum({op['symbol'][0]}, n={op['symbol'][2]})"
    if op["symbol"][0] != "table" and not res["tail_bound"] < 1e-10:
        problems.append(f"{what}: tail {res['tail_bound']!r} not below the requested 1e-10")
    _near(problems, what, res["value"], ref, res["tail_bound"] + ROUND * (1 + abs(ref)))
    return problems


def _check_trace_report(spec, rep):
    problems = []
    ref = symbol_trace(spec, rep["truncation_order"])
    what = f"trace_report({spec[0]}, n={spec[2]})"
    tail = rep["symbol_tail"]
    _near(problems, f"{what} symbol sum", rep["symbol_sum"], ref, tail + ROUND * (1 + abs(ref)))
    _near(problems, f"{what} diagonal quadrature", rep["diagonal_quadrature"], ref,
          tail + rep["quadrature_tol"] * (1 + abs(ref)))
    return problems


def _check_spectral(op, rep):
    problems = []
    _finite_verdict(problems, "spectral_trace_check criterion", rep["criterion"])
    spec, T = op["symbol"], op["truncation"]
    ref = symbol_trace(spec)
    _near(problems, "spectral_trace_check trace", rep["trace"], ref,
          rep["trace_tail"] + ROUND * (1 + abs(ref)))
    if spec[0] == "heat":
        eig = heat_eigenvalues(spec[1], T)
    else:
        eig = [row[-1] for row in spec[1] if row[0] <= T]
    scale = max(map(abs, eig))
    _near(problems, "spectral_trace_check eigenvalue sum", rep["eigenvalue_sum"],
          math.fsum(eig), (T + 1) * eig_tol(T, scale))
    return problems


def _check_galerkin(op, res):
    spec, T = op["symbol"], op["truncation"]
    want = sorted(heat_eigenvalues(spec[1], T))
    got = res["eigenvalues"]
    if len(got) != len(want):
        return [f"galerkin eigenvalues: {len(got)} values, want {len(want)}"]
    err = max(abs(a - b) for a, b in zip(got, want))
    if not err <= eig_tol(T, want[-1]):
        return [f"galerkin eigenvalues (T={T}) off by {err:.3g}"]
    return []


def _check_kernel(op, res):
    problems = []
    ref = mehler(op["symbol"][1], op["x"], op["y"])
    _near(problems, f"kernel_series at {op['x']}, {op['y']}", res["value"], ref,
          res["tail_bound"] + ROUND * (1 + abs(ref)))
    return problems


def check_op(op: dict, result: dict) -> list:
    """Problems with one successful Python-API operation's result."""
    kind = op["kind"]
    if kind == "norm":
        return check_norm(op["degree"], op["p"], result["value"])
    if kind == "s_r_sum":
        return _check_s_r(op, result)
    if kind == "compare_sr_kappa":
        return _check_compare(op, result)
    if kind == "kappa_sum":
        return _check_kappa(op, result)
    if kind == "trace_symbol_sum":
        return _check_trace_value(op, result)
    if kind == "trace_report":
        return _check_trace_report(op["symbol"], result)
    if kind == "spectral_trace_check":
        return _check_spectral(op, result)
    if kind == "galerkin_eigenvalues":
        return _check_galerkin(op, result)
    if kind == "kernel_series":
        return _check_kernel(op, result)
    return [f"no check for operation kind {kind!r}"]


# ---- command line ----------------------------------------------------------


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _cli_norms(op, out):
    fmt_csv = "--format" in op["argv"]
    rows = _csv_rows(out) if fmt_csv else json.loads(out)["rows"]
    problems, norms = [], {}
    for row in rows:
        d, key, value = int(row["nu"]), p_key(row["p"]), float(row["computed"])
        norms[(d, key)] = value
        problems += check_norm(d, key, value)
    return problems + check_norm_relations(norms)


def _cli_semigroup(out):
    problems = []
    for row in json.loads(out)["rows"]:
        ref = heat_trace(row["t"], 1)
        _near(problems, "semigroup closed form", row["closed_form"], ref, ROUND * ref)
        _near(problems, "semigroup symbol sum", row["symbol_sum"], ref, ROUND * (1 + ref))
        _near(problems, "semigroup diagonal quadrature", row["diagonal_quadrature"], ref,
              1e-8 * (1 + ref))
    return problems


def _cli_criterion(out):
    rep = json.loads(out)
    problems = []
    _finite_verdict(problems, "criterion", rep)
    kind, _, t = rep["symbol"].partition(":")
    if (rep["p1"], rep["p2"], rep["r"], kind) == ("2", "2", "1", "heat"):
        ref = heat_trace(float(t), 1)
        _near(problems, "criterion (2, 2, 1) vs trace", rep["partial_sum"], ref,
              rep["tail_bound"] + ROUND * (1 + ref))
    return problems


def _cli_trace(op, out):
    rep = json.loads(out)
    if "table" in op:
        spec = ["table", op["table"], rep["dimension"]]
    else:
        n, a = op["reference"].split(":")
        spec = ["power", int(a), int(n)]
    return _check_trace_report(spec, rep)


def _cli_kernel(op, out):
    rows = _csv_rows(out)
    problems = []
    if len(rows) != len(op["grid"]) ** 2:
        problems.append(f"kernel: {len(rows)} rows for a grid of {len(op['grid'])}")
    t = float(op["argv"][op["argv"].index("--t") + 1])
    for row in rows:
        x = [float(c) for c in row["x"].split(";")]
        y = [float(c) for c in row["y"].split(";")]
        ref = mehler(t, x, y)
        _near(problems, f"kernel at {x}, {y}", float(row["series"]), ref,
              float(row["tail_bound"]) + ROUND * (1 + ref))
    return problems


def _cli_refused(result):
    problems = []
    err = json.loads(result["stderr"])["error"]
    if err.get("type") != "UnsupportedRegimeError" or err.get("hypothesis") != "1 < p1 < infinity":
        problems.append(f"refusal names the wrong error: {err!r}")
    if result["stdout"]:
        problems.append("refused request wrote to stdout")
    return problems


def check_cli(op: dict, result: dict, round_results: list) -> list:
    """Problems with one CLI invocation that exited with its expected code."""
    out = result["stdout"]
    check = op["check"]
    try:
        if check == "norms":
            problems = _cli_norms(op, out)
        elif check == "semigroup":
            problems = _cli_semigroup(out)
        elif check == "criterion":
            problems = _cli_criterion(out)
        elif check == "trace":
            problems = _cli_trace(op, out)
        elif check == "kernel":
            problems = _cli_kernel(op, out)
        elif check == "refused":
            problems = _cli_refused(result)
        else:
            problems = [f"no check named {check!r}"]
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output of {' '.join(op['argv'])}: {exc!r}"]
    first = op.get("repeat_of")
    earlier = round_results[first] if first is not None else None
    if earlier is not None and out != earlier["stdout"]:
        problems.append(f"repeated invocation {' '.join(op['argv'])} changed its output")
    return problems
