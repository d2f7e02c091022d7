"""Traces of Hermite multipliers by three independent routes.

Route one sums the symbol over the index lattice (grouped by level for
level-radial symbols).  Route two integrates the truncated diagonal
kernel with tensorized quadrature, which factors into per-coordinate
quadratures of phi_u^2.  Route three, available for the heat semigroup,
is the closed form (e^t - e^{-t})^{-n}.  A fourth, spectral route
diagonalizes the Galerkin matrix of the operator and sums eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._accel import phi_table
from .errors import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    HermultError,
    InconclusiveError,
    TraceCheckRefused,
    UnsupportedRegimeError,
)
from .nuclearity import (
    CriterionReport,
    _exponent_str,
    classify_regime,
    gl_condition,
    kappa_sum,
    s_r_sum,
)
from .quadrature import gauss_hermite_rule
from .spectral_ops import Symbol, _log_sinh, effective_weights, lattice_sum, level_tail_bound

_TRACE_MAX_DOUBLINGS = 12


def _check_dimension(m: Symbol, n: int | None) -> int:
    if n is None:
        return m.dimension
    if n != m.dimension:
        raise DomainError(f"symbol has dimension {m.dimension}, requested n = {n}")
    return n


@dataclass(frozen=True)
class TraceValue:
    """Signed partial trace with a bound on the discarded tail."""

    value: float
    tail_bound: float
    truncation_order: int


def trace_symbol_sum(m: Symbol, n: int | None = None, tol: float = 1e-10,
                     N: int | None = None) -> TraceValue:
    """Lattice sum of the symbol with a certified tail below tol.

    Without an explicit truncation order the sum is doubled until the
    tail bound drops below tol; symbols with no envelope and infinite
    support cannot be certified and raise an inconclusive error.
    """
    n = _check_dimension(m, n)
    if m.envelope is None and m.table is None:
        raise InconclusiveError(
            "symbol has no envelope and no finite support; trace tail cannot be certified"
        )
    if N is not None:
        tail = level_tail_bound(m, N)
        if tail is None:
            raise InconclusiveError("no certified tail bound at this truncation")
        return TraceValue(value=lattice_sum(m, N), tail_bound=tail,
                          truncation_order=N)
    order = 200 * n
    history = []
    for _ in range(_TRACE_MAX_DOUBLINGS + 1):
        tail = level_tail_bound(m, order)
        history.append(lattice_sum(m, order))
        if tail is not None and tail < tol:
            return TraceValue(value=history[-1], tail_bound=tail, truncation_order=order)
        if tail is None:
            raise InconclusiveError("no certified tail bound is available for this symbol")
        order *= 2
    raise ConvergenceError(
        f"trace tail bound did not reach {tol:g} after {_TRACE_MAX_DOUBLINGS} doublings",
        last_two=tuple(history[-2:]),
    )


def trace_diagonal_quadrature(m: Symbol, n: int | None = None, N: int = 60,
                              tol: float = 1e-8) -> float:
    """Tensor-quadrature integral of the truncated diagonal kernel.

    The grid sum factors exactly into per-coordinate quadratures
    q_u = sum_i w_i phi_u(x_i)^2, so no n-dimensional grid is formed.
    With N+1 nodes each q_u is exact for u <= N, and the result must
    reproduce the truncated symbol sum; a mismatch raises.
    """
    n = _check_dimension(m, n)
    if N < 0:
        raise DomainError("truncation order must be >= 0")
    rule = gauss_hermite_rule(N + 1)
    ew = effective_weights(rule)
    T = phi_table(rule.nodes, N)
    q = (T * T) @ ew
    value = lattice_sum(m, N, factors=q)
    reference = lattice_sum(m, N)
    slack = max(tol, 1e-10) * (1.0 + abs(reference))
    if not abs(value - reference) <= slack:
        raise ConvergenceError(
            "diagonal quadrature disagrees with the truncated symbol sum",
            last_two=(value, reference),
        )
    return value


def semigroup_trace_closed_form(t: float, n: int = 1) -> float:
    """(e^t - e^{-t})^{-n}, evaluated in logs for stability.

    Also evaluates the kernel-integral form
    (2 pi)^{-n/2} sinh(2t)^{-n/2} (pi / tanh t)^{n/2} and verifies the
    two agree; a disagreement means a broken identity, not bad input.
    """
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    if n < 1:
        raise DomainError("dimension must be >= 1")
    log_direct = -n * (math.log(2.0) + _log_sinh(t))
    log_mehler = _log_semigroup_mehler(t, n)
    if not abs(log_direct - log_mehler) <= 1e-12 * max(1.0, abs(log_direct)):
        raise HermultError(
            f"semigroup trace identity violated: {log_direct} vs {log_mehler}"
        )
    return math.exp(log_direct) if log_direct > -745.0 else 0.0


def _log_semigroup_mehler(t: float, n: int) -> float:
    return 0.5 * n * (
        -math.log(2.0 * math.pi) - _log_sinh(2.0 * t)
        + math.log(math.pi) - math.log(math.tanh(t))
    )


def semigroup_trace_mehler_form(t: float, n: int = 1) -> float:
    """The Gaussian-integral route to the semigroup trace."""
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    if n < 1:
        raise DomainError("dimension must be >= 1")
    L = _log_semigroup_mehler(t, n)
    return math.exp(L) if L > -745.0 else 0.0


@dataclass(frozen=True)
class TraceReport:
    """Multi-route trace comparison for one symbol."""

    symbol: str
    dimension: int
    truncation_order: int
    symbol_sum: float
    symbol_tail: float
    diagonal_quadrature: float
    quadrature_tol: float
    closed_form: float | None
    discrepancies: dict

    def to_json_obj(self):
        return {
            "schema": 1,
            "symbol": self.symbol,
            "dimension": self.dimension,
            "truncation_order": self.truncation_order,
            "symbol_sum": self.symbol_sum,
            "symbol_tail": self.symbol_tail,
            "diagonal_quadrature": self.diagonal_quadrature,
            "quadrature_tol": self.quadrature_tol,
            "closed_form": self.closed_form,
            "discrepancies": dict(sorted(self.discrepancies.items())),
        }


def trace_report(m: Symbol, n: int | None = None, N: int = 60, tol: float = 1e-8,
                 closed_form: float | None = None) -> TraceReport:
    """Compute the symbol-sum and diagonal-quadrature traces and compare.

    When a closed-form value is supplied it must agree with the symbol
    sum within the certified tail plus rounding slack.
    """
    n = _check_dimension(m, n)
    sym = trace_symbol_sum(m, n=n, tol=tol, N=N)
    diag = trace_diagonal_quadrature(m, n=n, N=N, tol=tol)
    disc = {"symbol_vs_quadrature": abs(sym.value - diag)}
    if closed_form is not None:
        disc["symbol_vs_closed"] = abs(sym.value - closed_form)
        disc["quadrature_vs_closed"] = abs(diag - closed_form)
        if not disc["symbol_vs_closed"] <= sym.tail_bound + 1e-12 * (1 + abs(closed_form)):
            raise ConvergenceError(
                "symbol-sum trace disagrees with the closed form beyond the tail bound",
                last_two=(sym.value, closed_form),
            )
    return TraceReport(
        symbol=m.label,
        dimension=n,
        truncation_order=N,
        symbol_sum=sym.value,
        symbol_tail=sym.tail_bound,
        diagonal_quadrature=diag,
        quadrature_tol=tol,
        closed_form=closed_form,
        discrepancies=disc,
    )


def galerkin_matrix(m: Symbol, truncation: int) -> np.ndarray:
    """Quadrature Galerkin matrix of the multiplier on degrees <= truncation.

    Entries are double quadratures of K_m(x, y) phi_mu(y) phi_nu(x),
    assembled as G M G with G the quadrature Gram matrix; the route
    never uses the eigenrelation directly, so its eigenvalues are an
    independent check of the symbol values.  One-dimensional symbols
    only.
    """
    if m.dimension != 1:
        raise CapabilityError("Galerkin diagonalization supports dimension 1 only")
    if truncation < 0:
        raise DomainError("truncation must be >= 0")
    rule = gauss_hermite_rule(truncation + 1)
    ew = effective_weights(rule)
    V = phi_table(rule.nodes, truncation)
    VW = V * ew
    G = VW @ V.T
    mvals = np.array([m((u,)) for u in range(truncation + 1)])
    return G @ (mvals[:, None] * G)


@dataclass(frozen=True)
class SpectralTraceReport:
    """Comparison of the lattice trace against the eigenvalue sum."""

    symbol: str
    p: str
    r_gl: str
    r_used: str
    hypotheses_met: bool
    criterion: CriterionReport
    trace: float
    trace_tail: float
    eigenvalue_sum: float
    galerkin_truncation: int
    max_offdiagonal: float
    discrepancy: float

    def to_json_obj(self):
        return {
            "schema": 1,
            "symbol": self.symbol,
            "p": self.p,
            "r_gl": self.r_gl,
            "r_used": self.r_used,
            "hypotheses_met": self.hypotheses_met,
            "criterion": self.criterion.to_json_obj(),
            "trace": self.trace,
            "trace_tail": self.trace_tail,
            "eigenvalue_sum": self.eigenvalue_sum,
            "galerkin_truncation": self.galerkin_truncation,
            "max_offdiagonal": self.max_offdiagonal,
            "discrepancy": self.discrepancy,
        }


def spectral_trace_check(m: Symbol, p, n: int | None = None, tol: float = 1e-8,
                         truncation: int = 60, r=None) -> SpectralTraceReport:
    """Certify summability at the order tied to p, then compare the
    symbol trace with the Galerkin eigenvalue sum.

    The summability order defaults to 1/(1 + |1/p - 1/2|); passing a
    different r clears the hypotheses_met flag.  At p = 1 the weight-law
    cases do not apply and the direct quadrature-norm sum is used
    instead.  A criterion verdict other than finite refuses the check.
    """
    n = _check_dimension(m, n)
    r_gl = gl_condition(p)
    r_used = Fraction(r_gl) if r is None else r
    hypotheses_met = r is None or Fraction(r) == r_gl

    use_direct = False
    try:
        case = classify_regime(p, p, r_used)
    except (UnsupportedRegimeError, DomainError):
        use_direct = True
    if use_direct:
        report = s_r_sum(m, p, p, r_used, tol=tol)
    else:
        report = kappa_sum(m, case, tol=tol)
    if report.verdict != "finite":
        raise TraceCheckRefused(
            f"criterion verdict is {report.verdict!r} at r = {r_used}; "
            "trace comparison refused",
            verdict=report.verdict,
            report=report,
        )

    sym = trace_symbol_sum(m, n=n, tol=min(tol, 1e-10))
    A = galerkin_matrix(m, truncation)
    eigenvalue_sum = float(np.sum(np.linalg.eigvalsh(A)))
    off = A - np.diag(np.diag(A))
    return SpectralTraceReport(
        symbol=m.label,
        p=_exponent_str(p if isinstance(p, Fraction) else Fraction(p).limit_denominator(10 ** 6)),
        r_gl=str(r_gl),
        r_used=str(Fraction(r_used)),
        hypotheses_met=hypotheses_met,
        criterion=report,
        trace=sym.value,
        trace_tail=sym.tail_bound,
        eigenvalue_sum=eigenvalue_sum,
        galerkin_truncation=truncation,
        max_offdiagonal=float(np.max(np.abs(off))),
        discrepancy=abs(eigenvalue_sum - sym.value),
    )
